//! The §5 local-names extension, end to end — including the measurable
//! payoff on the §4 case study: expressing ACEDB's `Strain` as AAtDB's
//! `Phenotype` by *renaming* instead of delete + re-add keeps the construct
//! (and everything attached to it) in the mapping as reused.

use shrink_wrap_schemas::core::{ConceptKind, Mapping};
use shrink_wrap_schemas::corpus::genome;
use shrink_wrap_schemas::prelude::*;

#[test]
fn alias_preserves_reuse_where_name_equivalence_forces_churn() {
    // Without local names (name equivalence only): Strain -> Phenotype is
    // delete + add, so Strain and its members count as deleted.
    let acedb = genome::acedb();
    let script = shrink_wrap_schemas::core::ops::synthesize::synthesize(&acedb, &genome::aatdb());
    let renames_as_churn = script
        .iter()
        .filter(|op| {
            matches!(op, shrink_wrap_schemas::core::ModOp::DeleteTypeDefinition { ty } if ty == "Strain")
                || matches!(op, shrink_wrap_schemas::core::ModOp::AddTypeDefinition { ty } if ty == "Phenotype")
        })
        .count();
    assert_eq!(renames_as_churn, 2, "name equivalence forces delete+add");

    // With local names: zero operations — an alias entry suffices, and the
    // rendered schema uses the plant-discipline terms.
    let mut repo = Repository::ingest(acedb);
    repo.set_type_alias("Strain", "Phenotype").unwrap();
    repo.set_member_alias("Strain", "strain_name", "phenotype_name")
        .unwrap();
    repo.set_member_alias("Strain", "genotype", "description")
        .unwrap();
    assert!(
        repo.workspace().log().is_empty(),
        "no modification operations needed"
    );

    let local = repo.custom_schema_local_odl();
    assert!(local.contains("interface Phenotype"));
    assert!(local.contains("attribute string(32) phenotype_name;"));
    assert!(local.contains("keys phenotype_name;"));
    assert!(!local.contains("Strain"));
    // The mapping still reports 100% reuse: nothing was deleted.
    let summary = Mapping::derive(repo.workspace()).summary();
    assert_eq!(summary.deleted, 0);
    assert!((summary.reuse_fraction() - 1.0).abs() < 1e-9);
}

#[test]
fn aliases_compose_with_real_modifications() {
    let mut session = Session::new(Repository::ingest(genome::acedb()));
    // Real structural customization...
    session
        .issue_str("delete_type_definition(TwoPointData)")
        .unwrap();
    session.set_context(ConceptKind::WagonWheel);
    session
        .issue_str("add_attribute(Locus, string(16), chromosome_arm)")
        .unwrap();
    // ...plus display renames.
    session.set_alias("Strain", None, "Phenotype").unwrap();
    session
        .set_alias("Locus", Some("chromosome_arm"), "arm")
        .unwrap();

    let local = session.repository().custom_schema_local_odl();
    assert!(local.contains("interface Phenotype"));
    assert!(local.contains("attribute string(16) arm;"));
    assert!(!local.contains("TwoPointData"));
    // Canonical output keeps canonical names (the workspace vocabulary).
    let canonical = session.repository().custom_schema_odl();
    assert!(canonical.contains("interface Strain"));
    assert!(canonical.contains("chromosome_arm"));

    // Round-trip through persistence.
    let dir = std::env::temp_dir().join(format!("sws_local_names_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    session.save(&dir).unwrap();
    let loaded = Session::load(&dir).unwrap();
    assert_eq!(
        loaded.repository().custom_schema_local_odl(),
        session.repository().custom_schema_local_odl()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn locally_named_output_is_valid_odl() {
    // The renamed schema must itself parse, lower and check clean — it is
    // a real deliverable, not just display sugar.
    let mut repo = Repository::ingest(genome::acedb());
    repo.set_type_alias("Strain", "Phenotype").unwrap();
    repo.set_type_alias("Paper", "Publication").unwrap();
    repo.set_member_alias("Paper", "title", "headline").unwrap();
    let local = repo.custom_schema_local_odl();
    let parsed = shrink_wrap_schemas::odl::parse_schema(&local).expect("valid ODL");
    let g = shrink_wrap_schemas::model::schema_to_graph(&parsed).expect("lowers cleanly");
    let report = shrink_wrap_schemas::core::check_consistency(&g, &g);
    assert_eq!(report.errors().count(), 0, "{}", report.render());
}

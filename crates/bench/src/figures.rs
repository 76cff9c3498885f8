//! Reproduction of the paper's figures (3–8) on the corpus schemas.
//!
//! Each `figN` function returns the rendered artifact plus structural facts
//! asserted by the integration tests; the `repro_*` binaries print them.

use crate::harness::apply_script;
use sws_core::oplang::parse_script;
use sws_core::{decompose, ConceptKind, Workspace};
use sws_corpus::{house, software, university};
use sws_model::{graph_to_schema, query, SchemaGraph, TypeId};
use sws_odl::{print_interface, HierKind};

/// Render one interface of a graph as ODL.
pub fn interface_odl(g: &SchemaGraph, name: &str) -> String {
    let schema = graph_to_schema(g);
    let iface = schema
        .interface(name)
        .unwrap_or_else(|| panic!("no interface `{name}`"));
    print_interface(iface)
}

/// Render a hierarchy as an indented tree.
fn render_tree(
    g: &SchemaGraph,
    root: TypeId,
    children: &dyn Fn(&SchemaGraph, TypeId) -> Vec<TypeId>,
) -> String {
    fn walk(
        g: &SchemaGraph,
        node: TypeId,
        depth: usize,
        children: &dyn Fn(&SchemaGraph, TypeId) -> Vec<TypeId>,
        out: &mut String,
    ) {
        out.push_str(&"    ".repeat(depth));
        out.push_str(g.type_name(node));
        out.push('\n');
        let mut kids = children(g, node);
        kids.sort_by(|a, b| g.type_name(*a).cmp(g.type_name(*b)));
        for kid in kids {
            walk(g, kid, depth + 1, children, out);
        }
    }
    let mut out = String::new();
    walk(g, root, 0, children, &mut out);
    out
}

/// Fig. 3: the course-offering wagon wheel concept schema.
pub fn fig3() -> (String, usize) {
    let g = university::graph();
    let d = decompose(&g);
    let co = g.type_id("CourseOffering").expect("corpus");
    let ww = d.wagon_wheel_of(co).expect("one wagon wheel per type");
    (ww.describe(&g), ww.element_count())
}

/// The Fig. 7 elaboration script: a class schedule that consists of course
/// offerings (an aggregation link added *inside* the course-offering
/// neighbourhood), exactly as §3.4 describes.
pub const FIG7_ELABORATION: &str = "
    add_type_definition(Schedule)
    add_attribute(Schedule, string(16), term_name)
    add_extent_name(Schedule, schedules)
    add_part_of_relationship(Schedule, list<CourseOffering>, offerings,
                             CourseOffering::schedule, (room))
";

/// The §3.4 simplification: courses offered by correspondence only — the
/// time slot entity and room attribute go away.
pub const FIG7_SIMPLIFICATION: &str = "
    delete_relationship(CourseOffering, offered_during)
    delete_type_definition(TimeSlot)
    delete_attribute(CourseOffering, room)
";

/// Fig. 7: elaborate, then simplify; returns the elaborated wagon wheel
/// view and the final one.
pub fn fig7() -> (Workspace, String, String) {
    let mut ws = Workspace::new(university::graph());
    let ops = parse_script(FIG7_ELABORATION).expect("script parses");
    apply_script(&mut ws, &ops).expect("elaboration applies");
    let elaborated = {
        let g = ws.working();
        let d = decompose(g);
        let co = g.type_id("CourseOffering").expect("present");
        d.wagon_wheel_of(co).expect("present").describe(g)
    };
    let ops = parse_script(FIG7_SIMPLIFICATION).expect("script parses");
    apply_script(&mut ws, &ops).expect("simplification applies");
    let simplified = {
        let g = ws.working();
        let d = decompose(g);
        let co = g.type_id("CourseOffering").expect("present");
        d.wagon_wheel_of(co).expect("present").describe(g)
    };
    (ws, elaborated, simplified)
}

/// Fig. 4: the student generalization hierarchy, rendered as a tree.
pub fn fig4() -> String {
    let g = university::graph();
    let student = g.type_id("Student").expect("corpus");
    render_tree(&g, student, &|g, t| g.ty(t).subtypes.to_vec())
}

/// Fig. 5: the house parts explosion, rendered as a tree.
pub fn fig5() -> String {
    let g = house::graph();
    let root = query::hier_roots(&g, HierKind::PartOf)[0];
    render_tree(&g, root, &|g, t| {
        query::hier_children(g, HierKind::PartOf, t)
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    })
}

/// Fig. 6: the software instance-of sequence, rendered as a chain.
pub fn fig6() -> String {
    let g = software::graph();
    let root = query::hier_roots(&g, HierKind::InstanceOf)[0];
    render_tree(&g, root, &|g, t| {
        query::hier_children(g, HierKind::InstanceOf, t)
            .into_iter()
            .map(|(_, c)| c)
            .collect()
    })
}

/// Fig. 8 + the §3.4 ODL listing: `modify_relationship_target_type`
/// executed on the department/employee/person schema. Returns
/// (before-ODL, after-ODL, workspace).
pub fn fig8() -> (String, String, Workspace) {
    let mut ws = Workspace::new(university::graph());
    let before = format!(
        "{}\n{}",
        interface_odl(ws.working(), "Department"),
        interface_odl(ws.working(), "Employee")
    );
    ws.apply(
        ConceptKind::Generalization,
        sws_core::oplang::parse_statement(
            "modify_relationship_target_type(Department, has, Employee, Person)",
        )
        .expect("statement parses"),
    )
    .expect("the paper's example applies");
    let after = format!(
        "{}\n{}",
        interface_odl(ws.working(), "Department"),
        interface_odl(ws.working(), "Person")
    );
    (before, after, ws)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_wagon_wheel_matches_paper() {
        let (view, _) = fig3();
        for needle in [
            "wagon wheel: CourseOffering",
            "type Course",   // instance-of spoke (dotted in the paper)
            "type Syllabus", // described-by
            "type Book",     // book-for
            "type TimeSlot", // offered-during
            "attribute CourseOffering::room",
            "attribute CourseOffering::duration",
        ] {
            assert!(view.contains(needle), "missing {needle:?} in:\n{view}");
        }
    }

    #[test]
    fn fig7_elaboration_adds_schedule_aggregation() {
        let (ws, elaborated, simplified) = fig7();
        assert!(elaborated.contains("part-of Schedule::offerings -> CourseOffering::schedule"));
        // Simplification removed the time slot and room.
        assert!(!simplified.contains("TimeSlot"));
        assert!(!simplified.contains("room"));
        assert!(ws.working().type_id("TimeSlot").is_none());
        // Deleting TimeSlot cascaded its relationship: visible in the log's
        // impact for the delete_type op.
        let delete_record = ws
            .log()
            .iter()
            .find(|r| matches!(&r.op, sws_core::ModOp::DeleteTypeDefinition { ty } if ty == "TimeSlot"))
            .expect("logged");
        assert!(!delete_record.impact.is_empty());
    }

    #[test]
    fn fig4_tree_shape() {
        let tree = fig4();
        let expected = "\
Student
    Graduate
        Masters
            NonThesisMasters
        PhD
    Undergraduate
";
        assert_eq!(tree, expected);
    }

    #[test]
    fn fig5_tree_contains_roof_explosion() {
        let tree = fig5();
        assert!(tree.starts_with("House\n"));
        assert!(tree.contains("        Roof\n"));
        assert!(tree.contains("            Shingle\n"));
        assert!(tree.contains("            TarPaper\n"));
        assert!(tree.contains("            PlywoodDecking\n"));
    }

    #[test]
    fn fig6_chain_is_linear() {
        let chain = fig6();
        let expected = "\
Application
    Version
        CompiledVersion
            InstalledVersion
";
        assert_eq!(chain, expected);
    }

    #[test]
    fn fig8_odl_matches_paper_listing() {
        let (before, after, _) = fig8();
        // Before (the paper's first listing).
        assert!(before.contains("relationship set<Employee> has inverse Employee::works_in_a"));
        assert!(before.contains("relationship Department works_in_a inverse Department::has;"));
        // After (the paper's second listing).
        assert!(after.contains("relationship set<Person> has inverse Person::works_in_a"));
        assert!(after.contains("relationship Department works_in_a inverse Department::has;"));
        // And Employee no longer declares it.
        let (_, _, ws) = fig8();
        assert!(!interface_odl(ws.working(), "Employee").contains("works_in_a"));
    }
}

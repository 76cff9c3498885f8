//! Local names: the §5 extension the paper describes as straightforward
//! and out of mainstream scope.
//!
//! > "We acknowledge that database designers are very likely to want to
//! > introduce local names for constructs that appear in the schema. The
//! > extension of our work to handle this possibility requires that the
//! > user indicate a change of name, and that the system maintain the
//! > mapping from shrink wrap schema names to local names."
//!
//! An [`AliasTable`] maps canonical (shrink wrap) names to designer-chosen
//! local names. The workspace and all operations keep working on
//! *canonical* names — name equivalence stays intact — while
//! [`AliasTable::apply`] renders any canonical AST with local names for
//! presentation and export. The AAtDB `Phenotype` / ACEDB `Strain`
//! correspondence of §4 becomes expressible as `alias Strain -> Phenotype`
//! instead of delete + add.

use std::collections::BTreeMap;
use std::fmt;
use sws_odl::{DomainType, Schema};

/// Why an alias was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AliasError {
    /// The local name is already used as another type's local name (or is
    /// the canonical name of a different, un-aliased type).
    TypeNameTaken(String),
    /// The local member name collides within its type.
    MemberNameTaken { ty: String, member: String },
    /// Alias must differ from the canonical name.
    SameAsCanonical(String),
}

impl fmt::Display for AliasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AliasError::TypeNameTaken(n) => write!(f, "local type name `{n}` is already taken"),
            AliasError::MemberNameTaken { ty, member } => {
                write!(f, "local member name `{member}` is already taken on `{ty}`")
            }
            AliasError::SameAsCanonical(n) => {
                write!(f, "`{n}` is already the canonical name")
            }
        }
    }
}

impl std::error::Error for AliasError {}

/// The canonical → local name mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AliasTable {
    /// canonical type name → local type name.
    // swslint: allow(string-keys): aliases are the designer's vocabulary,
    // not schema names — they never cross the Symbol boundary.
    types: BTreeMap<String, String>,
    /// (canonical type, canonical member) → local member name.
    members: BTreeMap<(String, String), String>,
}

impl AliasTable {
    /// An empty table.
    pub fn new() -> Self {
        AliasTable::default()
    }

    /// True if no aliases are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty() && self.members.is_empty()
    }

    /// Register a local name for a type. `schema` supplies the collision
    /// context (the canonical schema being rendered).
    pub fn set_type_alias(
        &mut self,
        schema: &Schema,
        canonical: &str,
        local: &str,
    ) -> Result<(), AliasError> {
        if canonical == local {
            return Err(AliasError::SameAsCanonical(local.to_string()));
        }
        let clash = self.types.iter().any(|(c, l)| l == local && c != canonical)
            || schema
                .interfaces
                .iter()
                .any(|i| i.name == local && self.types.get(&i.name).is_none_or(|l| l == local));
        if clash {
            return Err(AliasError::TypeNameTaken(local.to_string()));
        }
        self.types.insert(canonical.to_string(), local.to_string());
        Ok(())
    }

    /// Register a local name for a member of a type (attribute,
    /// relationship path, operation, or link path).
    pub fn set_member_alias(
        &mut self,
        schema: &Schema,
        ty: &str,
        canonical: &str,
        local: &str,
    ) -> Result<(), AliasError> {
        if canonical == local {
            return Err(AliasError::SameAsCanonical(local.to_string()));
        }
        let key_owner = ty.to_string();
        let clash = self
            .members
            .iter()
            .any(|((t, m), l)| t == &key_owner && l == local && m != canonical)
            || schema.interface(ty).is_some_and(|i| {
                i.member_names().any(|m| {
                    m == local
                        && self
                            .members
                            .get(&(key_owner.clone(), m.to_string()))
                            .is_none_or(|l| l == local)
                })
            });
        if clash {
            return Err(AliasError::MemberNameTaken {
                ty: ty.to_string(),
                member: local.to_string(),
            });
        }
        self.members
            .insert((key_owner, canonical.to_string()), local.to_string());
        Ok(())
    }

    /// Remove a type alias. Returns whether one existed.
    pub fn clear_type_alias(&mut self, canonical: &str) -> bool {
        self.types.remove(canonical).is_some()
    }

    /// Remove a member alias. Returns whether one existed.
    pub fn clear_member_alias(&mut self, ty: &str, canonical: &str) -> bool {
        self.members
            .remove(&(ty.to_string(), canonical.to_string()))
            .is_some()
    }

    /// The local name of a type (canonical if un-aliased).
    pub fn local_type<'a>(&'a self, canonical: &'a str) -> &'a str {
        self.types
            .get(canonical)
            .map(String::as_str)
            .unwrap_or(canonical)
    }

    /// The local name of a member (canonical if un-aliased).
    pub fn local_member<'a>(&'a self, ty: &str, canonical: &'a str) -> &'a str {
        self.members
            .get(&(ty.to_string(), canonical.to_string()))
            .map(String::as_str)
            .unwrap_or(canonical)
    }

    /// All registered aliases, rendered one per line (the repository's
    /// persistence format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (canonical, local) in &self.types {
            out.push_str(&format!("type\t{canonical}\t{local}\n"));
        }
        for ((ty, member), local) in &self.members {
            out.push_str(&format!("member\t{ty}\t{member}\t{local}\n"));
        }
        out
    }

    /// Parse the [`Self::render`] format. Unknown lines are reported by
    /// index.
    pub fn parse(text: &str) -> Result<AliasTable, usize> {
        let mut table = AliasTable::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["type", canonical, local] => {
                    table.types.insert(canonical.to_string(), local.to_string());
                }
                ["member", ty, member, local] => {
                    table
                        .members
                        .insert((ty.to_string(), member.to_string()), local.to_string());
                }
                _ => return Err(i + 1),
            }
        }
        Ok(table)
    }

    /// Render a canonical AST with local names applied everywhere a name
    /// occurs: interface names, supertype references, relationship/link
    /// targets, inverse paths, attribute domains, key lists, and order-by
    /// lists.
    pub fn apply(&self, schema: &Schema) -> Schema {
        let mut out = schema.clone();
        for iface in &mut out.interfaces {
            let canonical_ty = iface.name.clone();
            iface.name = self.local_type(&canonical_ty).to_string();
            for sup in &mut iface.supertypes {
                *sup = self.local_type(sup).to_string();
            }
            for key in &mut iface.keys {
                for attr in &mut key.0 {
                    *attr = self.local_member(&canonical_ty, attr).to_string();
                }
            }
            for attr in &mut iface.attributes {
                attr.name = self.local_member(&canonical_ty, &attr.name).to_string();
                attr.ty = self.rename_domain(&attr.ty);
            }
            for op in &mut iface.operations {
                op.name = self.local_member(&canonical_ty, &op.name).to_string();
                op.return_type = self.rename_domain(&op.return_type);
                for p in &mut op.args {
                    p.ty = self.rename_domain(&p.ty);
                }
            }
            for rel in &mut iface.relationships {
                let target_canonical = rel.target.clone();
                rel.path = self.local_member(&canonical_ty, &rel.path).to_string();
                rel.inverse_path = self
                    .local_member(&target_canonical, &rel.inverse_path)
                    .to_string();
                for attr in &mut rel.order_by {
                    *attr = self.local_member(&target_canonical, attr).to_string();
                }
                rel.target = self.local_type(&target_canonical).to_string();
            }
            for link in iface.part_ofs.iter_mut().chain(&mut iface.instance_ofs) {
                let target_canonical = link.target.clone();
                link.path = self.local_member(&canonical_ty, &link.path).to_string();
                link.inverse_path = self
                    .local_member(&target_canonical, &link.inverse_path)
                    .to_string();
                for attr in &mut link.order_by {
                    *attr = self.local_member(&target_canonical, attr).to_string();
                }
                link.target = self.local_type(&target_canonical).to_string();
            }
        }
        out
    }

    fn rename_domain(&self, ty: &DomainType) -> DomainType {
        match ty {
            DomainType::Named(n) => DomainType::Named(self.local_type(n).to_string()),
            DomainType::Collection(kind, elem) => {
                DomainType::Collection(*kind, Box::new(self.rename_domain(elem)))
            }
            DomainType::Array(elem, n) => DomainType::Array(Box::new(self.rename_domain(elem)), *n),
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use sws_odl::{parse_schema, print_schema};

    /// `schema` lowers, and its consistency report has no error.
    fn assert_lowers_clean(schema: &Schema) {
        let g = sws_model::schema_to_graph(schema).expect("lowers");
        let report = check_consistency(&g, &g);
        assert_eq!(report.errors().count(), 0, "{}", report.render());
    }

    fn schema() -> Schema {
        parse_schema(
            r#"
            interface Strain {
                extent strains;
                attribute string(32) strain_name;
                keys strain_name;
                relationship set<Allele> carries inverse Allele::carried_by
                    order_by (allele_name);
            }
            interface Allele {
                attribute string(32) allele_name;
                attribute set<Strain> related;
                relationship Strain carried_by inverse Strain::carries;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn strain_to_phenotype_via_alias() {
        // The §4 / §5 scenario: the plant discipline calls a strain a
        // phenotype. With local names this is a rename, not delete + add.
        let canonical = schema();
        let mut aliases = AliasTable::new();
        aliases
            .set_type_alias(&canonical, "Strain", "Phenotype")
            .unwrap();
        aliases
            .set_member_alias(&canonical, "Strain", "strain_name", "phenotype_name")
            .unwrap();
        aliases
            .set_member_alias(&canonical, "Allele", "allele_name", "variant_name")
            .unwrap();
        let local = aliases.apply(&canonical);
        let text = print_schema(&local);
        assert!(text.contains("interface Phenotype"));
        assert!(!text.contains("Strain"));
        assert!(text.contains("attribute string(32) phenotype_name;"));
        assert!(text.contains("keys phenotype_name;"));
        // Relationship references renamed on both sides, incl. domains and
        // order-by lists (which reference the target type's attributes).
        assert!(text.contains("relationship Phenotype carried_by inverse Phenotype::carries;"));
        assert!(text.contains("order_by (variant_name)"), "{text}");
        assert!(text.contains("attribute set<Phenotype> related;"));
        // The rendered schema is still valid extended ODL.
        assert_lowers_clean(&local);
    }

    #[test]
    fn collisions_rejected() {
        let canonical = schema();
        let mut aliases = AliasTable::new();
        // Colliding with another canonical type name.
        assert_eq!(
            aliases.set_type_alias(&canonical, "Strain", "Allele"),
            Err(AliasError::TypeNameTaken("Allele".into()))
        );
        // Identity alias.
        assert_eq!(
            aliases.set_type_alias(&canonical, "Strain", "Strain"),
            Err(AliasError::SameAsCanonical("Strain".into()))
        );
        // Member collision within the type.
        assert_eq!(
            aliases.set_member_alias(&canonical, "Strain", "strain_name", "carries"),
            Err(AliasError::MemberNameTaken {
                ty: "Strain".into(),
                member: "carries".into()
            })
        );
        // Two canonical types may not share one local name.
        aliases
            .set_type_alias(&canonical, "Strain", "Phenotype")
            .unwrap();
        assert_eq!(
            aliases.set_type_alias(&canonical, "Allele", "Phenotype"),
            Err(AliasError::TypeNameTaken("Phenotype".into()))
        );
    }

    #[test]
    fn swapping_canonical_name_allowed_when_freed() {
        // Aliasing Strain away frees `Strain` for another type's local
        // name... but we keep this conservative: `Strain` is only "taken"
        // by an interface whose own alias is absent. After aliasing Strain
        // to Phenotype, `Strain` can become Allele's local name.
        let canonical = schema();
        let mut aliases = AliasTable::new();
        aliases
            .set_type_alias(&canonical, "Strain", "Phenotype")
            .unwrap();
        aliases
            .set_type_alias(&canonical, "Allele", "Strain")
            .unwrap();
        let local = aliases.apply(&canonical);
        assert!(local.interface("Phenotype").is_some());
        assert!(local.interface("Strain").is_some());
        assert_lowers_clean(&local);
    }

    #[test]
    fn render_parse_round_trip() {
        let canonical = schema();
        let mut aliases = AliasTable::new();
        aliases
            .set_type_alias(&canonical, "Strain", "Phenotype")
            .unwrap();
        aliases
            .set_member_alias(&canonical, "Strain", "carries", "exhibits")
            .unwrap();
        let text = aliases.render();
        let parsed = AliasTable::parse(&text).unwrap();
        assert_eq!(parsed, aliases);
        assert!(AliasTable::parse("garbage line").is_err());
        assert!(AliasTable::parse("# comment\n").unwrap().is_empty());
    }

    #[test]
    fn clearing_aliases() {
        let canonical = schema();
        let mut aliases = AliasTable::new();
        aliases
            .set_type_alias(&canonical, "Strain", "Phenotype")
            .unwrap();
        assert!(aliases.clear_type_alias("Strain"));
        assert!(!aliases.clear_type_alias("Strain"));
        assert!(aliases.is_empty());
        assert_eq!(aliases.apply(&canonical), canonical);
    }

    #[test]
    fn lookup_helpers() {
        let canonical = schema();
        let mut aliases = AliasTable::new();
        aliases
            .set_type_alias(&canonical, "Strain", "Phenotype")
            .unwrap();
        assert_eq!(aliases.local_type("Strain"), "Phenotype");
        assert_eq!(aliases.local_type("Allele"), "Allele");
        assert_eq!(aliases.local_member("Strain", "carries"), "carries");
    }
}

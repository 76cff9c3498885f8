//! Canonical pretty-printer for extended ODL.
//!
//! The output parses back to an identical AST (`parse(print(s)) == s`), which
//! is what the repository relies on to persist shrink wrap and custom
//! schemas as text.

use crate::ast::{
    Attribute, Cardinality, HierKind, HierLink, Interface, Operation, Relationship, Schema,
};
use std::fmt::Write;

/// Print a schema with a `schema Name { ... }` wrapper.
pub fn print_schema(schema: &Schema) -> String {
    let mut out = String::new();
    write_schema(&mut out, &schema.name, &schema.interfaces, |out, iface| {
        print_interface_into(iface, out, 1)
    });
    out
}

/// Print one interface exactly as [`print_schema`] prints it inside the
/// schema wrapper (indented one level). Callers that keep these blocks
/// per interface can rebuild the whole text with [`assemble_schema`]
/// without re-printing the interfaces that did not change.
pub fn print_interface_block(iface: &Interface) -> String {
    let mut out = String::new();
    print_interface_into(iface, &mut out, 1);
    out
}

/// Write into `out` (cleared first) the schema named `name` whose
/// interfaces, in order, printed as `blocks` ([`print_interface_block`]).
/// Byte-identical to [`print_schema`] on the same interfaces.
pub fn assemble_schema<'a>(
    out: &mut String,
    name: &str,
    blocks: impl IntoIterator<Item = &'a str>,
) {
    out.clear();
    write_schema(out, name, blocks, |out, block| out.push_str(block));
}

fn write_schema<T>(
    out: &mut String,
    name: &str,
    items: impl IntoIterator<Item = T>,
    mut print: impl FnMut(&mut String, T),
) {
    let _ = writeln!(out, "schema {name} {{");
    for (idx, item) in items.into_iter().enumerate() {
        if idx > 0 {
            out.push('\n');
        }
        print(out, item);
    }
    out.push_str("}\n");
}

/// Print a single interface definition (no schema wrapper).
pub fn print_interface(iface: &Interface) -> String {
    let mut out = String::new();
    print_interface_into(iface, &mut out, 0);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_interface_into(iface: &Interface, out: &mut String, level: usize) {
    indent(out, level);
    if iface.is_abstract {
        out.push_str("abstract ");
    }
    let _ = write!(out, "interface {}", iface.name);
    if !iface.supertypes.is_empty() {
        let _ = write!(out, " : {}", iface.supertypes.join(", "));
    }
    out.push_str(" {\n");
    if let Some(extent) = &iface.extent {
        indent(out, level + 1);
        let _ = writeln!(out, "extent {extent};");
    }
    if !iface.keys.is_empty() {
        indent(out, level + 1);
        let rendered: Vec<String> = iface.keys.iter().map(|k| k.to_string()).collect();
        let _ = writeln!(out, "keys {};", rendered.join(", "));
    }
    for attr in &iface.attributes {
        print_attribute(attr, out, level + 1);
    }
    for rel in &iface.relationships {
        print_relationship(rel, out, level + 1);
    }
    for link in &iface.part_ofs {
        print_hier_link(link, HierKind::PartOf, out, level + 1);
    }
    for link in &iface.instance_ofs {
        print_hier_link(link, HierKind::InstanceOf, out, level + 1);
    }
    for op in &iface.operations {
        print_operation(op, out, level + 1);
    }
    indent(out, level);
    out.push_str("}\n");
}

fn print_attribute(attr: &Attribute, out: &mut String, level: usize) {
    indent(out, level);
    let _ = write!(out, "attribute {}", attr.ty);
    if let Some(size) = attr.size {
        let _ = write!(out, "({size})");
    }
    let _ = writeln!(out, " {};", attr.name);
}

fn target_spec(target: &str, cardinality: Cardinality) -> String {
    match cardinality {
        Cardinality::One => target.to_string(),
        Cardinality::Many(kind) => format!("{kind}<{target}>"),
    }
}

fn order_by_suffix(order_by: &[String]) -> String {
    if order_by.is_empty() {
        String::new()
    } else {
        format!(" order_by ({})", order_by.join(", "))
    }
}

fn print_relationship(rel: &Relationship, out: &mut String, level: usize) {
    indent(out, level);
    let _ = writeln!(
        out,
        "relationship {} {} inverse {}::{}{};",
        target_spec(&rel.target, rel.cardinality),
        rel.path,
        rel.target,
        rel.inverse_path,
        order_by_suffix(&rel.order_by),
    );
}

fn print_hier_link(link: &HierLink, kind: HierKind, out: &mut String, level: usize) {
    indent(out, level);
    let _ = writeln!(
        out,
        "{} {} {} inverse {}::{}{};",
        kind.keyword(),
        target_spec(&link.target, link.cardinality),
        link.path,
        link.target,
        link.inverse_path,
        order_by_suffix(&link.order_by),
    );
}

fn print_operation(op: &Operation, out: &mut String, level: usize) {
    indent(out, level);
    let args: Vec<String> = op
        .args
        .iter()
        .map(|p| format!("{} {} {}", p.direction.keyword(), p.ty, p.name))
        .collect();
    let _ = write!(out, "{} {}({})", op.return_type, op.name, args.join(", "));
    if !op.raises.is_empty() {
        let _ = write!(out, " raises ({})", op.raises.join(", "));
    }
    out.push_str(";\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_interface, parse_schema};

    const FULL: &str = r#"
    schema Uni {
        abstract interface Person : Root {
            extent people;
            keys id, (first, last);
            attribute string(32) name;
            attribute array<double, 2> location;
            relationship set<Course> takes inverse Course::taken_by order_by (number);
            part_of Body torso_of inverse Body::torso;
            instance_of set<Clone> clones inverse Clone::original;
            float gpa(in unsigned_long term) raises (NoGrades);
            void enroll();
        }
        interface Root { }
    }"#;

    #[test]
    fn round_trip_full_schema() {
        let schema = parse_schema(FULL).unwrap();
        let printed = print_schema(&schema);
        let reparsed = parse_schema(&printed).unwrap();
        assert_eq!(schema, reparsed);
    }

    #[test]
    fn round_trip_interface() {
        let src = "interface A { attribute long x; }";
        let iface = parse_interface(src).unwrap();
        let printed = print_interface(&iface);
        assert_eq!(parse_interface(&printed).unwrap(), iface);
    }

    #[test]
    fn printed_relationship_matches_paper_style() {
        let src = r#"interface Department {
            relationship set<Employee> has inverse Employee::works_in_a;
        }"#;
        let iface = parse_interface(src).unwrap();
        let printed = print_interface(&iface);
        assert!(
            printed.contains("relationship set<Employee> has inverse Employee::works_in_a;"),
            "got: {printed}"
        );
    }

    #[test]
    fn abstract_and_supertypes_printed() {
        let schema = parse_schema(FULL).unwrap();
        let printed = print_schema(&schema);
        assert!(printed.contains("abstract interface Person : Root {"));
    }

    #[test]
    fn assembled_blocks_equal_the_whole_print() {
        let schema = parse_schema(FULL).unwrap();
        let blocks: Vec<String> = schema
            .interfaces
            .iter()
            .map(print_interface_block)
            .collect();
        let mut out = String::from("stale");
        assemble_schema(&mut out, &schema.name, blocks.iter().map(String::as_str));
        assert_eq!(out, print_schema(&schema));
        assemble_schema(&mut out, "Empty", std::iter::empty());
        assert_eq!(out, print_schema(&Schema::new("Empty")));
    }

    #[test]
    fn empty_interface_prints_compactly() {
        let iface = parse_interface("interface E { }").unwrap();
        assert_eq!(print_interface(&iface), "interface E {\n}\n");
    }
}

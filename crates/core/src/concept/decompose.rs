//! Algorithmic decomposition of a schema into concept schemas (paper
//! activity 3) and single-root normalization (§3.2).

use super::{ConceptKind, ConceptSchema};
use sws_model::{query, LinkId, SchemaGraph, TypeId};
use sws_odl::HierKind;

/// The result of decomposing a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// One wagon wheel per object type, in type order.
    pub wagon_wheels: Vec<ConceptSchema>,
    /// One concept schema per generalization component.
    pub generalizations: Vec<ConceptSchema>,
    /// One concept schema per part-of root.
    pub aggregations: Vec<ConceptSchema>,
    /// One concept schema per instance-of root.
    pub instance_ofs: Vec<ConceptSchema>,
}

impl Decomposition {
    /// All concept schemas, wagon wheels first.
    pub fn all(&self) -> impl Iterator<Item = &ConceptSchema> {
        self.wagon_wheels
            .iter()
            .chain(&self.generalizations)
            .chain(&self.aggregations)
            .chain(&self.instance_ofs)
    }

    /// Total number of concept schemas.
    pub fn len(&self) -> usize {
        self.wagon_wheels.len()
            + self.generalizations.len()
            + self.aggregations.len()
            + self.instance_ofs.len()
    }

    /// True if the schema was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Find a wagon wheel by its focal type.
    pub fn wagon_wheel_of(&self, focal: TypeId) -> Option<&ConceptSchema> {
        self.wagon_wheels.iter().find(|cs| cs.focal == focal)
    }
}

/// Decompose `g` into its concept schemas. Does not mutate the graph; see
/// [`normalize_single_root`] for the multi-root transformation.
///
/// Each kind of concept schema is discovered by independent closure walks,
/// one per seed (type, generalization component, hierarchy root), in seed
/// order.
pub fn decompose(g: &SchemaGraph) -> Decomposition {
    let mut sp = sws_trace::span!("core.decompose", types = g.type_count());
    let mut ww_span = sws_trace::span("core.decompose.wagon_wheels");
    let wagon_wheels: Vec<ConceptSchema> = g.types().map(|(id, _)| wagon_wheel(g, id)).collect();
    ww_span.record("schemas", wagon_wheels.len());
    ww_span.record("elements", total_elements(&wagon_wheels));
    drop(ww_span);

    let mut gen_span = sws_trace::span("core.decompose.generalizations");
    let components = query::generalization_components(g);
    let generalizations: Vec<ConceptSchema> = components
        .iter()
        .map(|component| {
            let roots = query::component_roots(g, component);
            // Name the hierarchy after its root; with multiple roots (a schema
            // not yet normalized) fall back to the smallest member.
            let focal = roots.first().copied().unwrap_or(component[0]);
            let mut cs = ConceptSchema::new(ConceptKind::Generalization, focal, g.type_name(focal));
            for &t in component {
                cs.types.insert(t);
                for &sup in &g.ty(t).supertypes {
                    cs.gen_edges.insert((t, sup));
                }
            }
            cs
        })
        .collect();
    gen_span.record("schemas", generalizations.len());
    gen_span.record("elements", total_elements(&generalizations));
    drop(gen_span);

    let aggregations = hier_decompose(g, HierKind::PartOf, ConceptKind::Aggregation);
    let instance_ofs = hier_decompose(g, HierKind::InstanceOf, ConceptKind::InstanceOf);

    let d = Decomposition {
        wagon_wheels,
        generalizations,
        aggregations,
        instance_ofs,
    };
    sp.record("concept_schemas", d.len());
    d
}

/// The number of concept schemas [`decompose`] would produce —
/// `decompose(g).len()` — without building any of them: one wagon wheel
/// per live type, one generalization hierarchy per connected component of
/// the supertype graph (types with no supertype or subtype belong to
/// none), and one aggregation / instance-of hierarchy per root of that
/// hierarchy (a type with children and no parent of the kind). One
/// union-find pass over the type arena; no per-type allocation.
pub fn concept_count(g: &SchemaGraph) -> usize {
    let mut sp = sws_trace::span!("core.concept_count", types = g.type_count());
    let mut parent: Vec<usize> = (0..g.type_slots()).collect();
    fn find(parent: &mut [usize], mut t: usize) -> usize {
        while parent[t] != t {
            parent[t] = parent[parent[t]];
            t = parent[t];
        }
        t
    }
    let mut members = 0usize;
    let mut unions = 0usize;
    let mut hierarchy_roots = 0usize;
    for (id, node) in g.types() {
        if !node.supertypes.is_empty() || !node.subtypes.is_empty() {
            members += 1;
        }
        for &sup in &node.supertypes {
            let (a, b) = (
                find(&mut parent, id.index()),
                find(&mut parent, sup.index()),
            );
            if a != b {
                parent[a] = b;
                unions += 1;
            }
        }
        for kind in [HierKind::PartOf, HierKind::InstanceOf] {
            let has = |links: &[LinkId]| links.iter().any(|&l| g.link(l).kind == kind);
            if has(&node.parent_links) && !has(&node.child_links) {
                hierarchy_roots += 1;
            }
        }
    }
    // Each union merges two components of the supertype graph's members.
    let count = g.type_count() + (members - unions) + hierarchy_roots;
    sp.record("concept_schemas", count);
    count
}

/// Total element count (types, members, edges) across concept schemas —
/// the "schema size" figure the decomposition spans report.
fn total_elements(schemas: &[ConceptSchema]) -> usize {
    schemas
        .iter()
        .map(|cs| {
            cs.types.len()
                + cs.attrs.len()
                + cs.ops.len()
                + cs.rels.len()
                + cs.links.len()
                + cs.gen_edges.len()
        })
        .sum()
}

/// One wagon wheel: the focal type and its distance-one neighbourhood.
fn wagon_wheel(g: &SchemaGraph, id: TypeId) -> ConceptSchema {
    let node = g.ty(id);
    let mut cs = ConceptSchema::new(ConceptKind::WagonWheel, id, &node.name);
    // Spokes: attributes and operations of the focal point.
    cs.attrs.extend(node.attrs.iter().copied());
    cs.ops.extend(node.ops.iter().copied());
    // Relationships of distance one, bringing in the opposite type.
    for &(r, e) in &node.rel_ends {
        cs.rels.insert(r);
        cs.types.insert(g.rel(r).other(e).owner);
    }
    // Hierarchy links of distance one.
    for &l in node.parent_links.iter().chain(&node.child_links) {
        let link = g.link(l);
        cs.links.insert(l);
        cs.types.insert(link.parent);
        cs.types.insert(link.child);
    }
    // Generalization edges of distance one.
    for &sup in &node.supertypes {
        cs.gen_edges.insert((id, sup));
        cs.types.insert(sup);
    }
    for &sub in &node.subtypes {
        cs.gen_edges.insert((sub, id));
        cs.types.insert(sub);
    }
    cs
}

fn hier_decompose(g: &SchemaGraph, kind: HierKind, concept: ConceptKind) -> Vec<ConceptSchema> {
    let mut sp = sws_trace::span!("core.decompose.hierarchies", kind = hier_tag(kind));
    let roots = query::hier_roots(g, kind);
    let out: Vec<ConceptSchema> = roots
        .into_iter()
        .map(|root| {
            let (types, links) = query::hier_closure(g, kind, root);
            let mut cs = ConceptSchema::new(concept, root, g.type_name(root));
            cs.types.extend(types);
            cs.links.extend(links);
            cs
        })
        .collect();
    sp.record("schemas", out.len());
    sp.record("elements", total_elements(&out));
    out
}

fn hier_tag(kind: HierKind) -> &'static str {
    match kind {
        HierKind::PartOf => "part_of",
        HierKind::InstanceOf => "instance_of",
    }
}

/// Normalize every multi-root generalization component by inserting an
/// abstract supertype above its roots (paper §3.2: "any hierarchy with two
/// or more roots can be easily transformed by creating an abstract supertype
/// of the multiple roots"). Returns the names of the created root types.
pub fn normalize_single_root(g: &mut SchemaGraph) -> Vec<String> {
    let mut created = Vec::new();
    let components = query::generalization_components(g);
    for component in components {
        let roots = query::component_roots(g, &component);
        if roots.len() < 2 {
            continue;
        }
        // Synthesize a fresh, unique abstract root name.
        let base: String = roots
            .iter()
            .map(|&r| g.type_name(r).to_string())
            .collect::<Vec<_>>()[..2]
            .join("Or");
        let mut name = format!("Abstract{base}");
        let mut n = 1;
        while g.type_id(&name).is_some() {
            n += 1;
            name = format!("Abstract{base}{n}");
        }
        let root = g.add_type(&name).expect("fresh name");
        g.set_abstract(root, true).expect("live");
        for r in roots {
            g.add_supertype(r, root).expect("acyclic by construction");
        }
        created.push(name);
    }
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::schema_to_graph;
    use sws_odl::parse_schema;

    /// The course-offering neighbourhood of Fig. 3 plus the student
    /// hierarchy of Fig. 4.
    const UNI: &str = r#"
    schema Uni {
        interface Course {
            attribute string number;
            instance_of set<CourseOffering> offerings inverse CourseOffering::course;
        }
        interface CourseOffering {
            attribute string(16) room;
            instance_of Course course inverse Course::offerings;
            relationship set<Student> enrolls inverse Student::enrolled_in;
            relationship TimeSlot offered_during inverse TimeSlot::offerings;
        }
        interface TimeSlot {
            relationship set<CourseOffering> offerings inverse CourseOffering::offered_during;
        }
        interface Student {
            relationship set<CourseOffering> enrolled_in inverse CourseOffering::enrolls;
        }
        interface Undergraduate : Student { }
        interface Graduate : Student { }
        interface Masters : Graduate { }
        interface PhD : Graduate { }
        interface House {
            part_of set<Roof> roofs inverse Roof::house;
        }
        interface Roof {
            part_of House house inverse House::roofs;
            part_of set<Shingle> shingles inverse Shingle::roof;
        }
        interface Shingle {
            part_of Roof roof inverse Roof::shingles;
        }
    }"#;

    fn uni() -> SchemaGraph {
        schema_to_graph(&parse_schema(UNI).unwrap()).unwrap()
    }

    #[test]
    fn one_wagon_wheel_per_type() {
        let g = uni();
        let d = decompose(&g);
        assert_eq!(d.wagon_wheels.len(), g.type_count());
        for cs in &d.wagon_wheels {
            assert!(cs.types.contains(&cs.focal));
        }
    }

    #[test]
    fn wagon_wheel_contents_match_figure3() {
        let g = uni();
        let d = decompose(&g);
        let co = g.type_id("CourseOffering").unwrap();
        let ww = d.wagon_wheel_of(co).unwrap();
        // Spokes: Course (instance-of), Student (enrolls), TimeSlot.
        let names: Vec<&str> = ww.types.iter().map(|&t| g.type_name(t)).collect();
        assert!(names.contains(&"Course"));
        assert!(names.contains(&"Student"));
        assert!(names.contains(&"TimeSlot"));
        assert_eq!(ww.attrs.len(), 1);
        assert_eq!(ww.rels.len(), 2);
        assert_eq!(ww.links.len(), 1);
    }

    #[test]
    fn generalization_component_rooted_at_student() {
        let g = uni();
        let d = decompose(&g);
        assert_eq!(d.generalizations.len(), 1);
        let gen = &d.generalizations[0];
        assert_eq!(gen.focal, g.type_id("Student").unwrap());
        assert_eq!(gen.types.len(), 5);
        assert_eq!(gen.gen_edges.len(), 4);
    }

    #[test]
    fn aggregation_rooted_at_house() {
        let g = uni();
        let d = decompose(&g);
        assert_eq!(d.aggregations.len(), 1);
        let agg = &d.aggregations[0];
        assert_eq!(agg.focal, g.type_id("House").unwrap());
        assert_eq!(agg.types.len(), 3);
        assert_eq!(agg.links.len(), 2);
    }

    #[test]
    fn instance_of_rooted_at_course() {
        let g = uni();
        let d = decompose(&g);
        assert_eq!(d.instance_ofs.len(), 1);
        assert_eq!(d.instance_ofs[0].focal, g.type_id("Course").unwrap());
    }

    #[test]
    fn union_of_wagon_wheels_covers_schema() {
        // §3.3.1: "The union of all the initial concept schemas gives the
        // original shrink wrap schema."
        let g = uni();
        let d = decompose(&g);
        let mut types = std::collections::BTreeSet::new();
        let mut attrs = std::collections::BTreeSet::new();
        let mut rels = std::collections::BTreeSet::new();
        let mut ops = std::collections::BTreeSet::new();
        let mut links = std::collections::BTreeSet::new();
        let mut edges = std::collections::BTreeSet::new();
        for cs in &d.wagon_wheels {
            types.extend(cs.types.iter().copied());
            attrs.extend(cs.attrs.iter().copied());
            rels.extend(cs.rels.iter().copied());
            ops.extend(cs.ops.iter().copied());
            links.extend(cs.links.iter().copied());
            edges.extend(cs.gen_edges.iter().copied());
        }
        assert_eq!(types.len(), g.type_count());
        assert_eq!(attrs.len(), g.attrs().count());
        assert_eq!(rels.len(), g.rels().count());
        assert_eq!(ops.len(), g.ops().count());
        assert_eq!(links.len(), g.links().count());
        let total_edges: usize = g.types().map(|(_, n)| n.supertypes.len()).sum();
        assert_eq!(edges.len(), total_edges);
    }

    #[test]
    fn normalize_multi_root_hierarchy() {
        let src = r#"
        interface A { }
        interface B { }
        interface C : A, B { }"#;
        let mut g = schema_to_graph(&parse_schema(src).unwrap()).unwrap();
        let created = normalize_single_root(&mut g);
        assert_eq!(created.len(), 1);
        let root = g.type_id(&created[0]).unwrap();
        assert!(g.ty(root).is_abstract);
        // Now the component has a single root.
        let components = query::generalization_components(&g);
        assert_eq!(components.len(), 1);
        assert_eq!(query::component_roots(&g, &components[0]), vec![root]);
        // Idempotent.
        assert!(normalize_single_root(&mut g).is_empty());
    }

    #[test]
    fn normalize_handles_name_collisions() {
        let src = r#"
        interface A { }
        interface B { }
        interface C : A, B { }
        interface AbstractAOrB { }"#;
        let mut g = schema_to_graph(&parse_schema(src).unwrap()).unwrap();
        let created = normalize_single_root(&mut g);
        assert_eq!(created.len(), 1);
        assert_ne!(created[0], "AbstractAOrB");
    }

    #[test]
    fn concept_count_equals_the_decomposition_length() {
        let mut g = uni();
        assert_eq!(concept_count(&g), decompose(&g).len());
        normalize_single_root(&mut g);
        assert_eq!(concept_count(&g), decompose(&g).len());
        assert_eq!(concept_count(&SchemaGraph::new("empty")), 0);
    }

    #[test]
    fn empty_schema_decomposes_empty() {
        let g = SchemaGraph::new("empty");
        let d = decompose(&g);
        assert!(d.is_empty());
        assert_eq!(d.all().count(), 0);
    }
}

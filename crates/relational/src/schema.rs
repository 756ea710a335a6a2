//! Relations, indexes, foreign keys and schemas (paper §II-A).

use crate::graph::SchemaGraph;
use serde::{Deserialize, Serialize};

/// A foreign key of one relation referencing another relation's primary key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Attributes of the owning relation that form the foreign key.
    pub attributes: Vec<String>,
    /// Name of the referenced relation.
    pub references: String,
    /// Referenced (primary-key) attributes, in the same order.
    pub referenced_attributes: Vec<String>,
}

impl ForeignKey {
    /// Single-attribute foreign key (the common case in TPC-W and Company).
    pub fn simple(
        attribute: impl Into<String>,
        references: impl Into<String>,
        referenced_attribute: impl Into<String>,
    ) -> Self {
        ForeignKey {
            attributes: vec![attribute.into()],
            references: references.into(),
            referenced_attributes: vec![referenced_attribute.into()],
        }
    }
}

/// A relation: a named set of attributes with a primary key and zero or more
/// foreign keys (paper §II-A, "Relation").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    /// Relation name.
    pub name: String,
    /// All attributes.
    pub attributes: Vec<String>,
    /// Primary-key attributes, ordered.
    pub primary_key: Vec<String>,
    /// Foreign keys (the paper's F(R)).
    pub foreign_keys: Vec<ForeignKey>,
}

impl Relation {
    /// Starts building a relation.
    // Returning the builder from `new` is the crate's established entry
    // point (`Relation::new("R").attribute(..).build()`), not a constructor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(name: impl Into<String>) -> RelationBuilder {
        RelationBuilder {
            relation: Relation {
                name: name.into(),
                attributes: Vec::new(),
                primary_key: Vec::new(),
                foreign_keys: Vec::new(),
            },
        }
    }

    /// True if the relation declares this attribute.
    pub fn has_attribute(&self, attribute: &str) -> bool {
        self.attributes.iter().any(|a| a == attribute)
    }
}

/// Builder for [`Relation`].
#[derive(Debug, Clone)]
pub struct RelationBuilder {
    relation: Relation,
}

impl RelationBuilder {
    /// Adds attributes in declaration order.
    pub fn attributes<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.relation
            .attributes
            .extend(attrs.into_iter().map(Into::into));
        self
    }

    /// Declares the primary key (attributes must already be declared).
    pub fn primary_key<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.relation.primary_key = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Declares a single-attribute foreign key.
    pub fn foreign_key(
        mut self,
        attribute: impl Into<String>,
        references: impl Into<String>,
        referenced_attribute: impl Into<String>,
    ) -> Self {
        self.relation
            .foreign_keys
            .push(ForeignKey::simple(attribute, references, referenced_attribute));
        self
    }

    /// Finishes the relation, panicking on structural mistakes (undeclared
    /// key attributes), which are programming errors in schema definitions.
    pub fn build(self) -> Relation {
        let r = self.relation;
        assert!(!r.attributes.is_empty(), "relation {} has no attributes", r.name);
        assert!(!r.primary_key.is_empty(), "relation {} has no primary key", r.name);
        for pk in &r.primary_key {
            assert!(r.has_attribute(pk), "primary key {pk} not an attribute of {}", r.name);
        }
        for fk in &r.foreign_keys {
            for a in &fk.attributes {
                assert!(r.has_attribute(a), "foreign key {a} not an attribute of {}", r.name);
            }
        }
        r
    }
}

/// A covered index on a relation (paper §II-A, "Index"): `covered` ⊂ R is
/// stored in the index, and the index key is `indexed_on` ++ PK(R).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Index {
    /// Index name (unique within the schema).
    pub name: String,
    /// Relation the index belongs to.
    pub relation: String,
    /// Attributes stored in the index (the covered set X(R)).
    pub covered: Vec<String>,
    /// Attributes the index is keyed on (X_tuple(R)).
    pub indexed_on: Vec<String>,
}

impl Index {
    /// Creates an index named `name` on `relation`, keyed on `indexed_on`
    /// and covering `covered`.
    pub fn new<I, S, J, T>(
        name: impl Into<String>,
        relation: impl Into<String>,
        indexed_on: I,
        covered: J,
    ) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
        J: IntoIterator<Item = T>,
        T: Into<String>,
    {
        Index {
            name: name.into(),
            relation: relation.into(),
            indexed_on: indexed_on.into_iter().map(Into::into).collect(),
            covered: covered.into_iter().map(Into::into).collect(),
        }
    }

    /// The full index key: indexed attributes followed by the relation's
    /// primary key (deduplicated), per the paper's index model.
    pub fn key_attributes(&self, relation: &Relation) -> Vec<String> {
        let mut key = self.indexed_on.clone();
        for pk in &relation.primary_key {
            if !key.contains(pk) {
                key.push(pk.clone());
            }
        }
        key
    }
}

/// A schema: a set of relations and their index sets (paper §II-A, "Schema").
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    /// Relations, in declaration order.
    pub relations: Vec<Relation>,
    /// Indexes over those relations.
    pub indexes: Vec<Index>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Adds a relation.
    pub fn add_relation(&mut self, relation: Relation) -> &mut Self {
        assert!(
            self.relation(&relation.name).is_none(),
            "duplicate relation {}",
            relation.name
        );
        self.relations.push(relation);
        self
    }

    /// Adds an index; its relation must already exist.
    pub fn add_index(&mut self, index: Index) -> &mut Self {
        assert!(
            self.relation(&index.relation).is_some(),
            "index {} references unknown relation {}",
            index.name,
            index.relation
        );
        self.indexes.push(index);
        self
    }

    /// Builder-style [`Schema::add_relation`].
    pub fn with_relation(mut self, relation: Relation) -> Self {
        self.add_relation(relation);
        self
    }

    /// Builder-style [`Schema::add_index`].
    pub fn with_index(mut self, index: Index) -> Self {
        self.add_index(index);
        self
    }

    /// Looks up a relation by name (case-sensitive).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Indexes declared on `relation` (the paper's I(R)).
    pub fn indexes_of(&self, relation: &str) -> Vec<&Index> {
        self.indexes.iter().filter(|i| i.relation == relation).collect()
    }

    /// Names of all relations in declaration order.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.iter().map(|r| r.name.clone()).collect()
    }

    /// Checks the schema's references: every foreign key must reference an
    /// existing relation by its primary key, every index must be on an
    /// existing relation, and the foreign keys must form no cycle (the paper
    /// assumes a schema free of simple and transitive circular references).
    /// Returns a list of human-readable problems (empty = consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for r in &self.relations {
            for fk in &r.foreign_keys {
                match self.relation(&fk.references) {
                    None => problems.push(format!(
                        "{}: foreign key references unknown relation {}",
                        r.name, fk.references
                    )),
                    Some(target) => {
                        if fk.referenced_attributes != target.primary_key {
                            problems.push(format!(
                                "{}: foreign key to {} does not reference its primary key",
                                r.name, fk.references
                            ));
                        }
                        if fk.attributes.len() != fk.referenced_attributes.len() {
                            problems.push(format!(
                                "{}: foreign key to {} has mismatched attribute count",
                                r.name, fk.references
                            ));
                        }
                    }
                }
            }
        }
        for index in &self.indexes {
            if self.relation(&index.relation).is_none() {
                problems.push(format!(
                    "index {} is on unknown relation {}",
                    index.name, index.relation
                ));
            }
        }
        if SchemaGraph::from_schema(self).topological_order().is_none() {
            problems.push("foreign keys form a circular reference".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dept() -> Relation {
        Relation::new("Department")
            .attributes(["DNo", "DName"])
            .primary_key(["DNo"])
            .build()
    }

    fn employee() -> Relation {
        Relation::new("Employee")
            .attributes(["EID", "EName", "E_DNo"])
            .primary_key(["EID"])
            .foreign_key("E_DNo", "Department", "DNo")
            .build()
    }

    #[test]
    fn builder_constructs_relation() {
        let e = employee();
        assert_eq!(e.primary_key, vec!["EID"]);
        assert!(e.has_attribute("EName"));
        assert_eq!(e.foreign_keys.len(), 1);
        assert_eq!(e.foreign_keys[0].references, "Department");
    }

    #[test]
    #[should_panic(expected = "primary key")]
    fn builder_rejects_undeclared_primary_key() {
        let _ = Relation::new("Broken").attributes(["a"]).primary_key(["b"]).build();
    }

    #[test]
    fn schema_lookup_and_validation() {
        let schema = Schema::new().with_relation(dept()).with_relation(employee());
        assert!(schema.relation("Employee").is_some());
        assert!(schema.validate().is_empty());
        assert_eq!(schema.relation_names(), vec!["Department", "Employee"]);
    }

    #[test]
    fn validation_flags_dangling_foreign_key() {
        let schema = Schema::new().with_relation(employee());
        let problems = schema.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("unknown relation Department"));
    }

    #[test]
    fn validation_flags_non_pk_reference() {
        let bad_dept = Relation::new("Department")
            .attributes(["DNo", "DName"])
            .primary_key(["DName"])
            .build();
        let schema = Schema::new().with_relation(bad_dept).with_relation(employee());
        assert_eq!(schema.validate().len(), 1);
    }

    #[test]
    fn validation_flags_cycles_and_dangling_indexes() {
        let boss = Relation::new("Emp")
            .attributes(["id", "boss"])
            .primary_key(["id"])
            .foreign_key("boss", "Emp", "id")
            .build();
        let a = Relation::new("A")
            .attributes(["a_id", "a_b"])
            .primary_key(["a_id"])
            .foreign_key("a_b", "B", "b_id")
            .build();
        let b = Relation::new("B")
            .attributes(["b_id", "b_a"])
            .primary_key(["b_id"])
            .foreign_key("b_a", "A", "a_id")
            .build();
        for schema in [Schema::new().with_relation(boss), Schema::new().with_relation(a).with_relation(b)] {
            let problems = schema.validate();
            assert_eq!(problems.len(), 1);
            assert!(problems[0].contains("circular"), "{problems:?}");
        }

        let mut schema = Schema::new().with_relation(dept());
        schema.indexes.push(Index::new("i", "Nowhere", ["a"], ["a"]));
        let problems = schema.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("unknown relation Nowhere"), "{problems:?}");
    }

    #[test]
    fn index_key_appends_primary_key() {
        let idx = Index::new("emp_by_dno", "Employee", ["E_DNo"], ["E_DNo", "EName", "EID"]);
        assert_eq!(idx.key_attributes(&employee()), vec!["E_DNo", "EID"]);
    }

    #[test]
    fn indexes_of_filters_by_relation() {
        let schema = Schema::new()
            .with_relation(dept())
            .with_relation(employee())
            .with_index(Index::new("i1", "Employee", ["E_DNo"], ["E_DNo", "EID"]))
            .with_index(Index::new("i2", "Department", ["DName"], ["DName", "DNo"]));
        assert_eq!(schema.indexes_of("Employee").len(), 1);
        assert_eq!(schema.indexes_of("Department")[0].name, "i2");
    }

    #[test]
    #[should_panic(expected = "duplicate relation")]
    fn schema_rejects_duplicate_relations() {
        let _ = Schema::new().with_relation(dept()).with_relation(dept());
    }
}

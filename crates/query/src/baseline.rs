//! The baseline relational → NoSQL transformation (paper §II-D).
//!
//! * **Schema**: every relation `R` becomes a NoSQL table `R'` with the same
//!   attributes, row key = delimited concatenation of `PK(R)`, all attributes
//!   in a single column family.  Every index `X(R)` becomes a table keyed on
//!   `X_tuple(R) ++ PK(R)`.
//! * **Workload**: every read statement is kept; a write statement is kept
//!   only if it specifies every key attribute of its target relation
//!   (single-row writes).  [`crate::bind_write`] refuses an UPDATE or DELETE
//!   that leaves a key attribute unfixed, and execution refuses an INSERT
//!   without one, both with [`QueryError::IncompleteKey`].

use crate::catalog::{Catalog, ColumnType, TableDef, TableKind};
use crate::result::QueryError;
use nosql_store::{Cluster, TableSchema};
use relational::{Relation, Schema};

/// How column types are assigned when building a catalog from a relational
/// schema.  The relational model is untyped, so callers provide a typing
/// function; [`ColumnType::Str`] is used when it returns `None`.
pub type TypeHint<'a> = &'a dyn Fn(&str, &str) -> Option<ColumnType>;

/// Builds the baseline catalog, consulting `types(relation, column)` for
/// column types.
pub fn baseline_catalog_with_types(schema: &Schema, types: TypeHint<'_>) -> Catalog {
    let mut catalog = Catalog::new();
    for relation in &schema.relations {
        catalog.add_table(relation_table_def(relation, types));
    }
    for index in &schema.indexes {
        let relation = schema
            .relation(&index.relation)
            // lint-allow(panic-freedom): Schema::add_index refuses an unknown relation, and SynergySystem::build runs Schema::validate first
            .expect("index references a known relation");
        let mut columns: Vec<(String, ColumnType)> = Vec::new();
        for column in &index.covered {
            columns.push((
                column.clone(),
                types(&relation.name, column).unwrap_or_default(),
            ));
        }
        // The index key may include PK attributes that are not in the covered
        // set; make sure they are columns too.
        let key = index.key_attributes(relation);
        for k in &key {
            if !columns.iter().any(|(c, _)| c == k) {
                columns.push((k.clone(), types(&relation.name, k).unwrap_or_default()));
            }
        }
        catalog.add_table(TableDef::new(
            index.name.clone(),
            columns,
            key,
            TableKind::Index {
                of: relation.name.clone(),
            },
        ));
    }
    catalog
}

fn relation_table_def(relation: &Relation, types: TypeHint<'_>) -> TableDef {
    let columns = relation
        .attributes
        .iter()
        .map(|a| (a.clone(), types(&relation.name, a).unwrap_or_default()))
        .collect();
    TableDef::new(
        relation.name.clone(),
        columns,
        relation.primary_key.clone(),
        TableKind::Base,
    )
}

/// Creates the physical NoSQL table for every table in the catalog.
pub fn create_tables(cluster: &Cluster, catalog: &Catalog) -> Result<(), QueryError> {
    for def in catalog.tables() {
        if crate::writes::is_physical_kind(&def.kind) && !cluster.table_exists(&def.name) {
            cluster.create_table(TableSchema::new(def.name.clone()).with_family(super::catalog::FAMILY))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::company;
    use sql::parse_statement;

    #[test]
    fn baseline_catalog_mirrors_schema() {
        let schema = company::company_schema();
        let catalog = baseline_catalog_with_types(&schema, &|_, _| None);
        // 7 relations + 2 indexes.
        assert_eq!(catalog.len(), 9);
        let works_on = catalog.table("Works_On").unwrap();
        assert_eq!(works_on.key, vec!["WO_EID", "WO_PNo"]);
        assert_eq!(works_on.kind, TableKind::Base);
        let index = catalog.table("employee_by_dno").unwrap();
        assert_eq!(index.key, vec!["E_DNo", "EID"]);
        assert!(matches!(index.kind, TableKind::Index { .. }));
    }

    #[test]
    fn type_hints_are_applied() {
        let schema = company::company_schema();
        let catalog = baseline_catalog_with_types(&schema, &|relation, column| {
            (relation == "Employee" && column == "EID").then_some(ColumnType::Int)
        });
        let employee = catalog.table("Employee").unwrap();
        assert_eq!(employee.column_type("EID"), Some(ColumnType::Int));
        assert_eq!(employee.column_type("EName"), Some(ColumnType::Str));
    }

    #[test]
    fn workload_transformation_drops_multi_row_writes() {
        let schema = company::company_schema();
        let catalog = baseline_catalog_with_types(&schema, &|_, _| None);
        let cluster = Cluster::new(nosql_store::ClusterConfig::default());
        create_tables(&cluster, &catalog).unwrap();
        let executor = crate::Executor::new(cluster, catalog);
        for (sql_text, kept) in [
            ("SELECT * FROM Employee WHERE EID = ?", true),
            ("DELETE FROM Works_On WHERE WO_EID = ? AND WO_PNo = ?", true),
            // Affects multiple rows (only part of the composite key) — must be
            // excluded, like the shopping-cart-line DELETE in the paper.
            ("DELETE FROM Works_On WHERE WO_EID = ?", false),
            ("UPDATE Employee SET EName = ? WHERE EID = ?", true),
            ("UPDATE Employee SET EName = ? WHERE EName = ?", false),
            ("INSERT INTO Department (DNo, DName) VALUES (?, ?)", true),
            ("INSERT INTO Department (DName) VALUES (?)", false),
        ] {
            let params = vec![relational::Value::str("1"); sql_text.matches('?').count()];
            let result = executor.execute(&parse_statement(sql_text).unwrap(), &params);
            let refused = matches!(result, Err(QueryError::IncompleteKey { .. }));
            assert_eq!(refused, !kept, "{sql_text}: {result:?}");
        }
    }

    #[test]
    fn create_tables_is_idempotent() {
        let schema = company::company_schema();
        let catalog = baseline_catalog_with_types(&schema, &|_, _| None);
        let cluster = Cluster::new(nosql_store::ClusterConfig::default());
        create_tables(&cluster, &catalog).unwrap();
        create_tables(&cluster, &catalog).unwrap();
        assert_eq!(cluster.list_tables().len(), 9);
    }
}

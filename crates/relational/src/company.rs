//! The Company example database of the paper's Figure 2.
//!
//! Relations: Employee, Department, Department_Location, Project, Works_On,
//! Dependent and Address, with the key/foreign-key references drawn in
//! Figure 2.  The paper uses this schema (with roots {Address, Department})
//! to walk through the candidate-view generation mechanism; this
//! repository's tests and the `company_views` example do the same.

use crate::schema::{Index, Relation, Schema};

/// Builds the Company schema exactly as in Figure 2 of the paper.
pub fn company_schema() -> Schema {
    let address = Relation::new("Address")
        .attributes(["AID", "Street", "City", "Zip"])
        .primary_key(["AID"])
        .build();

    let employee = Relation::new("Employee")
        .attributes(["EID", "EName", "EHome_AID", "EOffice_AID", "E_DNo"])
        .primary_key(["EID"])
        .foreign_key("EHome_AID", "Address", "AID")
        .foreign_key("EOffice_AID", "Address", "AID")
        .foreign_key("E_DNo", "Department", "DNo")
        .build();

    let department = Relation::new("Department")
        .attributes(["DNo", "DName"])
        .primary_key(["DNo"])
        .build();

    let department_location = Relation::new("Department_Location")
        .attributes(["DL_DNo", "DLocation"])
        .primary_key(["DL_DNo", "DLocation"])
        .foreign_key("DL_DNo", "Department", "DNo")
        .build();

    let project = Relation::new("Project")
        .attributes(["PNo", "PName", "P_DNo"])
        .primary_key(["PNo"])
        .foreign_key("P_DNo", "Department", "DNo")
        .build();

    let works_on = Relation::new("Works_On")
        .attributes(["WO_EID", "WO_PNo", "Hours"])
        .primary_key(["WO_EID", "WO_PNo"])
        .foreign_key("WO_EID", "Employee", "EID")
        .foreign_key("WO_PNo", "Project", "PNo")
        .build();

    let dependent = Relation::new("Dependent")
        .attributes(["DP_EID", "DPName", "DPHome_AID"])
        .primary_key(["DP_EID", "DPName"])
        .foreign_key("DP_EID", "Employee", "EID")
        .foreign_key("DPHome_AID", "Address", "AID")
        .build();

    Schema::new()
        .with_relation(address)
        .with_relation(employee)
        .with_relation(department)
        .with_relation(department_location)
        .with_relation(project)
        .with_relation(works_on)
        .with_relation(dependent)
        .with_index(Index::new(
            "employee_by_dno",
            "Employee",
            ["E_DNo"],
            ["E_DNo", "EID", "EName"],
        ))
        .with_index(Index::new(
            "works_on_by_eid",
            "Works_On",
            ["WO_EID"],
            ["WO_EID", "WO_PNo", "Hours"],
        ))
}

/// The roots set the paper uses for the Company example (§V-B2):
/// `Q_company = {Address, Department}`.
pub fn company_roots() -> Vec<String> {
    vec!["Address".to_string(), "Department".to_string()]
}

/// The paper's synthetic Company workload W_company = {w1, w2, w3} (§V-B2),
/// as SQL text.  `w1` joins Employee with its home Address; `w2` joins
/// Department, Employee and Works_On; `w3` joins Employee and Works_On with
/// a filter on Hours.
pub fn company_workload_sql() -> Vec<String> {
    vec![
        "SELECT * FROM Employee AS e, Address AS a \
         WHERE a.AID = e.EHome_AID AND e.EID = ?"
            .to_string(),
        "SELECT * FROM Department AS d, Employee AS e, Works_On AS wo \
         WHERE d.DNo = e.E_DNo AND e.EID = wo.WO_EID AND d.DNo = ?"
            .to_string(),
        "SELECT * FROM Employee AS e, Works_On AS wo \
         WHERE e.EID = wo.WO_EID AND wo.Hours = ?"
            .to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn company_schema_is_consistent() {
        let schema = company_schema();
        assert_eq!(schema.relations.len(), 7);
        assert!(schema.validate().is_empty(), "{:?}", schema.validate());
    }

    #[test]
    fn employee_references_address_twice() {
        let schema = company_schema();
        let employee = schema.relation("Employee").unwrap();
        let to_address = employee.foreign_keys.iter().filter(|fk| fk.references == "Address");
        assert_eq!(to_address.count(), 2);
        assert_eq!(employee.foreign_keys.len(), 3);
    }

    #[test]
    fn roots_and_workload_shapes() {
        assert_eq!(company_roots(), vec!["Address", "Department"]);
        assert_eq!(company_workload_sql().len(), 3);
    }

    #[test]
    fn composite_keys_declared() {
        let schema = company_schema();
        assert_eq!(
            schema.relation("Works_On").unwrap().primary_key,
            vec!["WO_EID", "WO_PNo"]
        );
        assert_eq!(
            schema.relation("Department_Location").unwrap().primary_key,
            vec!["DL_DNo", "DLocation"]
        );
    }
}

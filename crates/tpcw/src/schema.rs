//! The TPC-W relational schema (the subset of attributes the workload
//! touches), its base-table indexes and column-type hints.

use query::ColumnType;
use relational::{Index, Relation, Schema};

/// Builds the TPC-W schema used throughout the evaluation.
pub fn tpcw_schema() -> Schema {
    let country = Relation::new("Country")
        .attributes(["co_id", "co_name", "co_currency", "co_exchange"])
        .primary_key(["co_id"])
        .build();

    let address = Relation::new("Address")
        .attributes([
            "addr_id",
            "addr_street1",
            "addr_city",
            "addr_state",
            "addr_zip",
            "addr_co_id",
        ])
        .primary_key(["addr_id"])
        .foreign_key("addr_co_id", "Country", "co_id")
        .build();

    let customer = Relation::new("Customer")
        .attributes([
            "c_id",
            "c_uname",
            "c_fname",
            "c_lname",
            "c_addr_id",
            "c_phone",
            "c_email",
            "c_since",
            "c_last_login",
            "c_discount",
            "c_balance",
            "c_ytd_pmt",
            "c_data",
        ])
        .primary_key(["c_id"])
        .foreign_key("c_addr_id", "Address", "addr_id")
        .build();

    let author = Relation::new("Author")
        .attributes(["a_id", "a_fname", "a_lname", "a_dob", "a_bio"])
        .primary_key(["a_id"])
        .build();

    let item = Relation::new("Item")
        .attributes([
            "i_id",
            "i_title",
            "i_a_id",
            "i_pub_date",
            "i_publisher",
            "i_subject",
            "i_desc",
            "i_related1",
            "i_srp",
            "i_cost",
            "i_avail",
            "i_stock",
            "i_isbn",
        ])
        .primary_key(["i_id"])
        .foreign_key("i_a_id", "Author", "a_id")
        .build();

    let orders = Relation::new("Orders")
        .attributes([
            "o_id",
            "o_c_id",
            "o_date",
            "o_sub_total",
            "o_tax",
            "o_total",
            "o_ship_type",
            "o_ship_date",
            "o_bill_addr_id",
            "o_ship_addr_id",
            "o_status",
        ])
        .primary_key(["o_id"])
        .foreign_key("o_c_id", "Customer", "c_id")
        .foreign_key("o_bill_addr_id", "Address", "addr_id")
        .foreign_key("o_ship_addr_id", "Address", "addr_id")
        .build();

    let order_line = Relation::new("Order_line")
        .attributes([
            "ol_o_id",
            "ol_id",
            "ol_i_id",
            "ol_qty",
            "ol_discount",
            "ol_comments",
        ])
        .primary_key(["ol_o_id", "ol_id"])
        .foreign_key("ol_o_id", "Orders", "o_id")
        .foreign_key("ol_i_id", "Item", "i_id")
        .build();

    let cc_xacts = Relation::new("CC_Xacts")
        .attributes([
            "cx_o_id",
            "cx_type",
            "cx_num",
            "cx_name",
            "cx_expire",
            "cx_xact_amt",
            "cx_xact_date",
            "cx_co_id",
        ])
        .primary_key(["cx_o_id"])
        .foreign_key("cx_o_id", "Orders", "o_id")
        .foreign_key("cx_co_id", "Country", "co_id")
        .build();

    let shopping_cart = Relation::new("Shopping_cart")
        .attributes(["sc_id", "sc_time"])
        .primary_key(["sc_id"])
        .build();

    let shopping_cart_line = Relation::new("Shopping_cart_line")
        .attributes(["scl_sc_id", "scl_i_id", "scl_qty"])
        .primary_key(["scl_sc_id", "scl_i_id"])
        .foreign_key("scl_sc_id", "Shopping_cart", "sc_id")
        .foreign_key("scl_i_id", "Item", "i_id")
        .build();

    Schema::new()
        .with_relation(country)
        .with_relation(address)
        .with_relation(customer)
        .with_relation(author)
        .with_relation(item)
        .with_relation(orders)
        .with_relation(order_line)
        .with_relation(cc_xacts)
        .with_relation(shopping_cart)
        .with_relation(shopping_cart_line)
        // Base-table indexes the workload relies on (the paper assumes the
        // input schema carries the necessary base indexes, §VI-C).
        .with_index(Index::new(
            "customer_by_uname",
            "Customer",
            ["c_uname"],
            ["c_uname", "c_id"],
        ))
        .with_index(Index::new(
            "orders_by_customer",
            "Orders",
            ["o_c_id"],
            ["o_c_id", "o_id", "o_date", "o_total"],
        ))
        .with_index(Index::new(
            "item_by_subject",
            "Item",
            ["i_subject"],
            ["i_subject", "i_id", "i_title", "i_pub_date"],
        ))
        .with_index(Index::new(
            "item_by_author",
            "Item",
            ["i_a_id"],
            ["i_a_id", "i_id", "i_title"],
        ))
        .with_index(Index::new(
            "order_line_by_item",
            "Order_line",
            ["ol_i_id"],
            ["ol_i_id", "ol_o_id", "ol_id", "ol_qty"],
        ))
        .with_index(Index::new(
            "scl_by_cart",
            "Shopping_cart_line",
            ["scl_sc_id"],
            ["scl_sc_id", "scl_i_id", "scl_qty"],
        ))
}

/// The roots set the paper uses for TPC-W:
/// `Q_TPC-W = {Author, Customer, Country}` (§IX-D2).
pub fn tpcw_roots() -> Vec<String> {
    vec![
        "Author".to_string(),
        "Customer".to_string(),
        "Country".to_string(),
    ]
}

/// Column-type hints for the baseline transformation: numeric identifiers,
/// quantities and monetary amounts; everything else is a string.
pub fn tpcw_types(_relation: &str, column: &str) -> Option<ColumnType> {
    match column {
        "co_id" | "addr_id" | "addr_co_id" | "c_id" | "c_addr_id" | "a_id" | "i_id" | "i_a_id"
        | "i_related1" | "i_avail" | "i_stock" | "o_id" | "o_c_id" | "o_bill_addr_id"
        | "o_ship_addr_id" | "ol_o_id" | "ol_id" | "ol_i_id" | "ol_qty" | "cx_o_id"
        | "cx_co_id" | "sc_id" | "scl_sc_id" | "scl_i_id" | "scl_qty" | "c_since"
        | "c_last_login" | "sc_time" => Some(ColumnType::Int),
        "c_discount" | "c_balance" | "c_ytd_pmt" | "i_srp" | "i_cost" | "o_sub_total" | "o_tax"
        | "o_total" | "ol_discount" | "cx_xact_amt" | "co_exchange" => Some(ColumnType::Float),
        _ => Some(ColumnType::Str),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::SchemaGraph;

    #[test]
    fn schema_is_referentially_consistent() {
        let schema = tpcw_schema();
        assert!(schema.validate().is_empty(), "{:?}", schema.validate());
        assert_eq!(schema.relations.len(), 10);
        assert_eq!(schema.indexes.len(), 6);
    }

    #[test]
    fn schema_graph_shape() {
        let schema = tpcw_schema();
        let graph = SchemaGraph::from_schema(&schema);
        assert!(graph.is_acyclic());
        // Orders references Address twice (billing and shipping).
        assert_eq!(graph.edges_between("Address", "Orders").len(), 2);
        assert_eq!(graph.out_edges("Customer").len(), 1);
        assert_eq!(graph.edges().iter().filter(|e| e.to == "Order_line").count(), 2);
    }

    #[test]
    fn roots_and_types() {
        assert_eq!(tpcw_roots(), vec!["Author", "Customer", "Country"]);
        assert_eq!(tpcw_types("Item", "i_id"), Some(ColumnType::Int));
        assert_eq!(tpcw_types("Item", "i_cost"), Some(ColumnType::Float));
        assert_eq!(tpcw_types("Item", "i_title"), Some(ColumnType::Str));
    }
}

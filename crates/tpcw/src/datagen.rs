//! Deterministic, scale-parameterised TPC-W data generation.
//!
//! The paper controls database size with the number of customers
//! (`NUM_CUST`), sets `NUM_ITEMS = 10 × NUM_CUST`, and changes the
//! Customer:Orders cardinality to 1:10 (§IX-D1).  The generator reproduces
//! those ratios at any scale and is fully deterministic for a given seed, so
//! every evaluated system is loaded with exactly the same rows.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use relational::Row;
use std::collections::BTreeMap;

/// The subjects items are drawn from (used by Q4/Q5/Q10 filters).
pub const SUBJECTS: [&str; 8] = [
    "ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING", "HISTORY", "SCIENCE",
];

/// Scale parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcwScale {
    /// Number of customers (`NUM_CUST`).
    pub customers: u64,
    /// RNG seed (same seed ⇒ identical dataset).
    pub seed: u64,
}

impl TpcwScale {
    /// A scale with the paper's ratios and a fixed seed.
    pub fn new(customers: u64) -> Self {
        TpcwScale {
            customers: customers.max(10),
            seed: 0x5EED_CAFE,
        }
    }

    /// `NUM_ITEMS = 10 × NUM_CUST`.
    pub fn items(&self) -> u64 {
        self.customers * 10
    }

    /// One author per four items (TPC-W's 0.25 ratio).
    pub fn authors(&self) -> u64 {
        (self.items() / 4).max(10)
    }

    /// Customer:Orders cardinality 1:10 (the paper's modified ratio).
    pub fn orders(&self) -> u64 {
        self.customers * 10
    }

    /// Average of three order lines per order.
    pub fn order_lines(&self) -> u64 {
        self.orders() * 3
    }

    /// One address per customer plus a pool for shipping addresses.
    pub fn addresses(&self) -> u64 {
        self.customers * 2
    }

    /// Active shopping carts (one per ten customers).
    pub fn shopping_carts(&self) -> u64 {
        (self.customers / 10).max(5)
    }
}

/// A fully generated dataset: rows per relation, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct TpcwDataset {
    /// Rows keyed by relation name.
    pub tables: BTreeMap<String, Vec<Row>>,
    /// The scale the dataset was generated at.
    pub customers: u64,
}

impl TpcwDataset {
    /// Generates the dataset for `scale`.
    pub fn generate(scale: TpcwScale) -> TpcwDataset {
        let mut rng = StdRng::seed_from_u64(scale.seed);
        let mut tables: BTreeMap<String, Vec<Row>> = BTreeMap::new();

        // Countries (the TPC-W standard 92 countries, abbreviated names).
        let countries: Vec<Row> = (1..=92i64)
            .map(|co_id| {
                Row::new()
                    .with("co_id", co_id)
                    .with("co_name", format!("COUNTRY{co_id}"))
                    .with("co_currency", "USD")
                    .with("co_exchange", 1.0 + (co_id as f64) / 100.0)
            })
            .collect();
        tables.insert("Country".into(), countries);

        // Addresses.
        let addresses: Vec<Row> = (1..=scale.addresses() as i64)
            .map(|addr_id| {
                Row::new()
                    .with("addr_id", addr_id)
                    .with("addr_street1", format!("{addr_id} Main Street"))
                    .with("addr_city", format!("CITY{}", addr_id % 500))
                    .with("addr_state", format!("ST{}", addr_id % 50))
                    .with("addr_zip", format!("{:05}", addr_id % 99999))
                    .with("addr_co_id", (addr_id % 92) + 1)
            })
            .collect();
        tables.insert("Address".into(), addresses);

        // Customers.
        let customers: Vec<Row> = (1..=scale.customers as i64)
            .map(|c_id| {
                Row::new()
                    .with("c_id", c_id)
                    .with("c_uname", customer_uname(c_id))
                    .with("c_fname", format!("First{c_id}"))
                    .with("c_lname", format!("Last{}", c_id % 1000))
                    .with("c_addr_id", c_id)
                    .with("c_phone", format!("555-{:07}", c_id))
                    .with("c_email", format!("user{c_id}@example.com"))
                    .with("c_since", 20000101 + (c_id % 365))
                    .with("c_last_login", 20170101 + (c_id % 365))
                    .with("c_discount", (c_id % 50) as f64 / 100.0)
                    .with("c_balance", 0.0)
                    .with("c_ytd_pmt", (c_id % 1000) as f64)
                    .with("c_data", format!("customer-data-{c_id}"))
            })
            .collect();
        tables.insert("Customer".into(), customers);

        // Authors.
        let authors: Vec<Row> = (1..=scale.authors() as i64)
            .map(|a_id| {
                Row::new()
                    .with("a_id", a_id)
                    .with("a_fname", format!("AuthorFirst{a_id}"))
                    .with("a_lname", format!("AuthorLast{}", a_id % 2000))
                    .with("a_dob", format!("19{:02}-01-01", a_id % 99))
                    .with("a_bio", format!("biography of author {a_id}"))
            })
            .collect();
        tables.insert("Author".into(), authors);

        // Items.
        let num_items = scale.items() as i64;
        let num_authors = scale.authors() as i64;
        let items: Vec<Row> = (1..=num_items)
            .map(|i_id| {
                Row::new()
                    .with("i_id", i_id)
                    .with("i_title", format!("Title {i_id}"))
                    .with("i_a_id", (i_id % num_authors) + 1)
                    .with("i_pub_date", format!("20{:02}-{:02}-01", i_id % 20, (i_id % 12) + 1))
                    .with("i_publisher", format!("Publisher{}", i_id % 100))
                    .with("i_subject", SUBJECTS[(i_id as usize) % SUBJECTS.len()])
                    .with("i_desc", format!("description of item {i_id}"))
                    .with("i_related1", (i_id % num_items) + 1)
                    .with("i_srp", 10.0 + (i_id % 90) as f64)
                    .with("i_cost", 5.0 + (i_id % 90) as f64)
                    .with("i_avail", 1)
                    .with("i_stock", 10 + (i_id % 30))
                    .with("i_isbn", format!("ISBN{i_id:010}"))
            })
            .collect();
        tables.insert("Item".into(), items);

        // Orders, order lines and credit-card transactions.
        let num_customers = scale.customers as i64;
        let num_addresses = scale.addresses() as i64;
        let mut orders = Vec::with_capacity(scale.orders() as usize);
        let mut order_lines = Vec::with_capacity(scale.order_lines() as usize);
        let mut cc_xacts = Vec::with_capacity(scale.orders() as usize);
        for o_id in 1..=scale.orders() as i64 {
            // Cardinality 1:10, deterministic round robin over customers.
            let o_c_id = ((o_id - 1) % num_customers) + 1;
            let total = 20.0 + rng.random_range(0.0..400.0);
            orders.push(
                Row::new()
                    .with("o_id", o_id)
                    .with("o_c_id", o_c_id)
                    .with("o_date", format!("2017-{:02}-{:02}", (o_id % 12) + 1, (o_id % 28) + 1))
                    .with("o_sub_total", total * 0.9)
                    .with("o_tax", total * 0.1)
                    .with("o_total", total)
                    .with("o_ship_type", "AIR")
                    .with("o_ship_date", format!("2017-{:02}-{:02}", (o_id % 12) + 1, (o_id % 28) + 2))
                    .with("o_bill_addr_id", o_c_id)
                    .with("o_ship_addr_id", (o_id % num_addresses) + 1)
                    .with("o_status", "SHIPPED"),
            );
            let lines = 2 + (o_id % 3); // 2..4 lines, average 3
            for ol_id in 1..=lines {
                order_lines.push(
                    Row::new()
                        .with("ol_o_id", o_id)
                        .with("ol_id", ol_id)
                        .with("ol_i_id", rng.random_range(1..=num_items))
                        .with("ol_qty", rng.random_range(1..=5i64))
                        .with("ol_discount", (o_id % 10) as f64 / 100.0)
                        .with("ol_comments", format!("line {ol_id} of order {o_id}")),
                );
            }
            cc_xacts.push(
                Row::new()
                    .with("cx_o_id", o_id)
                    .with("cx_type", "VISA")
                    .with("cx_num", format!("4111-{o_id:012}"))
                    .with("cx_name", format!("CARDHOLDER {o_c_id}"))
                    .with("cx_expire", "2019-12")
                    .with("cx_xact_amt", total)
                    .with("cx_xact_date", "2017-06-01")
                    .with("cx_co_id", (o_id % 92) + 1),
            );
        }
        tables.insert("Orders".into(), orders);
        tables.insert("Order_line".into(), order_lines);
        tables.insert("CC_Xacts".into(), cc_xacts);

        // Shopping carts and lines.
        let carts: Vec<Row> = (1..=scale.shopping_carts() as i64)
            .map(|sc_id| Row::new().with("sc_id", sc_id).with("sc_time", 20170601 + sc_id))
            .collect();
        let mut cart_lines = Vec::new();
        for sc_id in 1..=scale.shopping_carts() as i64 {
            for line in 0..((sc_id % 3) + 1) {
                cart_lines.push(
                    Row::new()
                        .with("scl_sc_id", sc_id)
                        .with("scl_i_id", ((sc_id * 7 + line) % num_items) + 1)
                        .with("scl_qty", (line % 4) + 1),
                );
            }
        }
        tables.insert("Shopping_cart".into(), carts);
        tables.insert("Shopping_cart_line".into(), cart_lines);

        TpcwDataset {
            tables,
            customers: scale.customers,
        }
    }

    /// Rows of one relation.
    pub fn rows(&self, relation: &str) -> &[Row] {
        self.tables
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of generated rows.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Vec::len).sum()
    }

    /// Relation names in the dependency order they must be loaded in.
    pub fn load_order() -> [&'static str; 10] {
        [
            "Country",
            "Address",
            "Customer",
            "Author",
            "Item",
            "Orders",
            "Order_line",
            "CC_Xacts",
            "Shopping_cart",
            "Shopping_cart_line",
        ]
    }
}

/// The deterministic user name of customer `c_id` (used by Q2/Q3 parameter
/// generation).
pub fn customer_uname(c_id: i64) -> String {
    format!("UNAME{c_id:08}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::Value;

    /// The integer `column` of `row`.
    fn int(row: &Row, column: &str) -> i64 {
        match row.get(column) {
            Some(Value::Int(v)) => *v,
            other => panic!("{column} is not an integer: {other:?}"),
        }
    }

    #[test]
    fn ratios_match_the_paper() {
        let scale = TpcwScale::new(100);
        assert_eq!(scale.items(), 1_000);
        assert_eq!(scale.orders(), 1_000);
        assert_eq!(scale.order_lines(), 3_000);
        let data = TpcwDataset::generate(scale);
        assert_eq!(data.rows("Customer").len(), 100);
        assert_eq!(data.rows("Item").len(), 1_000);
        assert_eq!(data.rows("Orders").len(), 1_000);
        assert_eq!(data.rows("Country").len(), 92);
        // Every customer has exactly 10 orders.
        let first_customer_orders = data
            .rows("Orders")
            .iter()
            .filter(|o| o.get("o_c_id") == Some(&Value::Int(1)))
            .count();
        assert_eq!(first_customer_orders, 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpcwDataset::generate(TpcwScale::new(50));
        let b = TpcwDataset::generate(TpcwScale::new(50));
        assert_eq!(a.total_rows(), b.total_rows());
        assert_eq!(a.rows("Order_line"), b.rows("Order_line"));
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let data = TpcwDataset::generate(TpcwScale::new(40));
        let num_items = data.rows("Item").len() as i64;
        let num_customers = data.rows("Customer").len() as i64;
        for ol in data.rows("Order_line") {
            let i = int(ol, "ol_i_id");
            assert!(i >= 1 && i <= num_items);
        }
        for o in data.rows("Orders") {
            let c = int(o, "o_c_id");
            assert!(c >= 1 && c <= num_customers);
        }
        for i in data.rows("Item") {
            let a = int(i, "i_a_id");
            assert!(a >= 1 && a <= data.rows("Author").len() as i64);
        }
    }

    #[test]
    fn load_order_covers_every_table() {
        let data = TpcwDataset::generate(TpcwScale::new(20));
        for table in TpcwDataset::load_order() {
            assert!(!data.rows(table).is_empty(), "{table} must have rows");
        }
        assert_eq!(data.tables.len(), 10);
    }
}

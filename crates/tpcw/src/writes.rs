//! The TPC-W write statements W1–W13 (paper Figure 16) with parameter
//! generators.
//!
//! As in the paper, the multi-row `DELETE FROM Shopping_cart_line WHERE
//! scl_sc_id = ?` statement is excluded from the workload because it affects
//! multiple base-table rows (§IX-D1); the remaining writes all specify their
//! full key.

use crate::datagen::TpcwScale;
use relational::Value;
use sql::{parse_statement, Statement};

/// One benchmark write statement.
#[derive(Debug, Clone)]
pub struct WriteStatement {
    /// Identifier used in the paper's Figure 14 ("W1" … "W13").
    pub id: &'static str,
    /// What the statement does (Figure 16 wording).
    pub description: &'static str,
    /// SQL text with `?` parameters.
    pub sql: &'static str,
}

impl WriteStatement {
    /// Parses the SQL into a statement.
    pub fn statement(&self) -> Statement {
        parse_statement(self.sql).unwrap_or_else(|e| panic!("{}: {e}", self.id))
    }

    /// Deterministic parameters for repetition `rep` at scale `scale`.
    ///
    /// Insert statements generate fresh keys well above the loaded key range
    /// so repetitions never collide with loaded rows; update/delete
    /// statements target existing rows.
    pub fn params(&self, scale: TpcwScale, rep: u64) -> Vec<Value> {
        let customers = scale.customers as i64;
        let items = scale.items() as i64;
        let orders = scale.orders() as i64;
        let carts = scale.shopping_carts() as i64;
        let r = rep as i64;
        let fresh = |base: i64| base + 1_000_000 + r;
        let existing = |n: i64| (r * 31 % n.max(1)) + 1;
        match self.id {
            // W1: Insert Orders.
            "W1" => vec![
                Value::Int(fresh(orders)),
                Value::Int(existing(customers)),
                Value::str("2017-07-01"),
                Value::Float(90.0),
                Value::Float(10.0),
                Value::Float(100.0),
                Value::str("AIR"),
                Value::str("2017-07-03"),
                Value::Int(existing(customers)),
                Value::Int(existing(customers)),
                Value::str("PENDING"),
            ],
            // W2: Insert CC_Xacts.
            "W2" => vec![
                Value::Int(fresh(orders)),
                Value::str("VISA"),
                Value::str("4111-000000000000"),
                Value::str("CARDHOLDER"),
                Value::str("2019-12"),
                Value::Float(100.0),
                Value::str("2017-07-01"),
                Value::Int(existing(92)),
            ],
            // W3: Insert Order_line.
            "W3" => vec![
                Value::Int(existing(orders)),
                Value::Int(fresh(10)),
                Value::Int(existing(items)),
                Value::Int(2),
                Value::Float(0.05),
                Value::str("benchmark order line"),
            ],
            // W4: Insert Customer.
            "W4" => vec![
                Value::Int(fresh(customers)),
                Value::str(format!("NEWUSER{r:08}")),
                Value::str("New"),
                Value::str("Customer"),
                Value::Int(existing(scale.addresses() as i64)),
                Value::str("555-0000000"),
                Value::str("new@example.com"),
                Value::Int(20170101),
                Value::Int(20170601),
                Value::Float(0.1),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::str("new customer data"),
            ],
            // W5: Insert Address.
            "W5" => vec![
                Value::Int(fresh(scale.addresses() as i64)),
                Value::str("1 New Street"),
                Value::str("NEWCITY"),
                Value::str("TN"),
                Value::str("37201"),
                Value::Int(existing(92)),
            ],
            // W6: Insert Shopping_cart.
            "W6" => vec![Value::Int(fresh(carts)), Value::Int(20170701)],
            // W7: Insert Shopping_cart_line.
            "W7" => vec![
                Value::Int(existing(carts)),
                Value::Int(fresh(items)),
                Value::Int(1),
            ],
            // W8: Delete Shopping_cart_line (fully keyed).
            "W8" => vec![Value::Int(existing(carts)), Value::Int(existing(items))],
            // W9: Update Item (price change).
            "W9" => vec![
                Value::Float(19.99),
                Value::Float(12.5),
                Value::Int(existing(items)),
            ],
            // W10: Update Item (related item / image refresh).
            "W10" => vec![
                Value::Int(existing(items)),
                Value::str("2017-07-01"),
                Value::Int(existing(items)),
            ],
            // W11: Update Shopping_cart (refresh timestamp).
            "W11" => vec![Value::Int(20170702), Value::Int(existing(carts))],
            // W12: Update Shopping_cart_line (quantity).
            "W12" => vec![
                Value::Int(3),
                Value::Int(existing(carts)),
                Value::Int(existing(items)),
            ],
            // W13: Update Customer (balance / ytd payment / last login).
            "W13" => vec![
                Value::Float(50.0),
                Value::Float(150.0),
                Value::Int(20170702),
                Value::Int(existing(customers)),
            ],
            other => panic!("unknown write id {other}"),
        }
    }
}

/// The thirteen write statements of the paper's Figure 16.
pub fn write_statements() -> Vec<WriteStatement> {
    vec![
        WriteStatement {
            id: "W1",
            description: "Insert Orders",
            sql: "INSERT INTO Orders (o_id, o_c_id, o_date, o_sub_total, o_tax, o_total, \
                  o_ship_type, o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status) \
                  VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        },
        WriteStatement {
            id: "W2",
            description: "Insert CC_Xacts",
            sql: "INSERT INTO CC_Xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire, \
                  cx_xact_amt, cx_xact_date, cx_co_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        },
        WriteStatement {
            id: "W3",
            description: "Insert Order_line",
            sql: "INSERT INTO Order_line (ol_o_id, ol_id, ol_i_id, ol_qty, ol_discount, \
                  ol_comments) VALUES (?, ?, ?, ?, ?, ?)",
        },
        WriteStatement {
            id: "W4",
            description: "Insert Customer",
            sql: "INSERT INTO Customer (c_id, c_uname, c_fname, c_lname, c_addr_id, c_phone, \
                  c_email, c_since, c_last_login, c_discount, c_balance, c_ytd_pmt, c_data) \
                  VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        },
        WriteStatement {
            id: "W5",
            description: "Insert Address",
            sql: "INSERT INTO Address (addr_id, addr_street1, addr_city, addr_state, addr_zip, \
                  addr_co_id) VALUES (?, ?, ?, ?, ?, ?)",
        },
        WriteStatement {
            id: "W6",
            description: "Insert Shopping_cart",
            sql: "INSERT INTO Shopping_cart (sc_id, sc_time) VALUES (?, ?)",
        },
        WriteStatement {
            id: "W7",
            description: "Insert Shopping_cart_line",
            sql: "INSERT INTO Shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)",
        },
        WriteStatement {
            id: "W8",
            description: "Delete Shopping_cart_line",
            sql: "DELETE FROM Shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?",
        },
        WriteStatement {
            id: "W9",
            description: "Update Item (price)",
            sql: "UPDATE Item SET i_srp = ?, i_cost = ? WHERE i_id = ?",
        },
        WriteStatement {
            id: "W10",
            description: "Update Item (related item and publication date)",
            sql: "UPDATE Item SET i_related1 = ?, i_pub_date = ? WHERE i_id = ?",
        },
        WriteStatement {
            id: "W11",
            description: "Update Shopping_cart",
            sql: "UPDATE Shopping_cart SET sc_time = ? WHERE sc_id = ?",
        },
        WriteStatement {
            id: "W12",
            description: "Update Shopping_cart_line",
            sql: "UPDATE Shopping_cart_line SET scl_qty = ? WHERE scl_sc_id = ? AND scl_i_id = ?",
        },
        WriteStatement {
            id: "W13",
            description: "Update Customer",
            sql: "UPDATE Customer SET c_balance = ?, c_ytd_pmt = ?, c_last_login = ? WHERE c_id = ?",
        },
    ]
}

/// The write statements as parsed statements.
pub fn write_statement_asts() -> Vec<Statement> {
    write_statements().iter().map(WriteStatement::statement).collect()
}

/// The full workload (reads then writes), used to drive view selection.
pub fn full_workload() -> Vec<Statement> {
    let mut workload = crate::queries::join_query_statements();
    workload.extend(write_statement_asts());
    workload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_writes_parse_and_are_writes() {
        let writes = write_statements();
        assert_eq!(writes.len(), 13);
        for w in &writes {
            assert!(w.statement().is_write(), "{} must be a write", w.id);
        }
    }

    #[test]
    fn parameter_arity_matches_placeholders() {
        let scale = TpcwScale::new(100);
        for w in write_statements() {
            let placeholders = w.sql.matches('?').count();
            assert_eq!(w.params(scale, 2).len(), placeholders, "{}", w.id);
        }
    }

    #[test]
    fn writes_specify_full_keys() {
        use crate::schema::{tpcw_schema, tpcw_types};
        use query::{baseline::baseline_catalog_with_types, bind_write, WriteChange};
        let catalog = baseline_catalog_with_types(&tpcw_schema(), &tpcw_types);
        let scale = TpcwScale::new(100);
        let writes = write_statements();
        assert_eq!(writes.len(), 13);
        for w in writes {
            // Every W statement is single-row: an UPDATE or DELETE binds
            // only when it fixes the whole key, and an INSERT names it.
            let bound = bind_write(&catalog, &w.statement(), &w.params(scale, 2))
                .unwrap_or_else(|e| panic!("{}: {e}", w.id));
            if let WriteChange::Insert(row) = &bound.change {
                assert!(bound.table.key.iter().all(|k| row.contains(k)), "{}", w.id);
            }
        }
    }

    #[test]
    fn full_workload_combines_reads_and_writes() {
        let workload = full_workload();
        assert_eq!(workload.len(), 24);
        assert_eq!(workload.iter().filter(|s| s.is_read()).count(), 11);
    }
}

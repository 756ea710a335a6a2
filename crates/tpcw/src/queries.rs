//! The TPC-W join queries Q1–Q11 (paper Figure 15) with parameter
//! generators.
//!
//! Each entry reproduces the table set, filters, grouping, ordering and
//! limit the paper lists; queries Q3, Q7, Q9 and Q10 are the ones the paper
//! marks as unsupported on VoltDB.

use crate::datagen::{customer_uname, TpcwScale, SUBJECTS};
use relational::Value;
use sql::{parse_statement, Statement};

/// One benchmark join query.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Identifier used in the paper's Figure 12 ("Q1" … "Q11").
    pub id: &'static str,
    /// Short description of what the servlet does.
    pub description: &'static str,
    /// The SQL text (with `?` parameters).
    pub sql: &'static str,
    /// Whether the paper reports this query as supported on VoltDB.
    pub supported_on_voltdb: bool,
}

impl JoinQuery {
    /// Parses the SQL into a statement.
    pub fn statement(&self) -> Statement {
        parse_statement(self.sql).unwrap_or_else(|e| panic!("{}: {e}", self.id))
    }

    /// Deterministic parameter values for repetition `rep` at scale `scale`.
    pub fn params(&self, scale: TpcwScale, rep: u64) -> Vec<Value> {
        let customers = scale.customers as i64;
        let items = scale.items() as i64;
        let orders = scale.orders() as i64;
        let pick = |n: i64| ((rep as i64 * 7919) % n.max(1)) + 1;
        match self.id {
            "Q1" => vec![Value::Int(pick(orders))],
            "Q2" => vec![Value::str(customer_uname(pick(customers)))],
            "Q3" => vec![Value::str(customer_uname(pick(customers)))],
            "Q4" | "Q5" => vec![Value::str(SUBJECTS[(rep as usize) % SUBJECTS.len()])],
            "Q6" => vec![Value::Int(pick(items))],
            "Q7" => vec![Value::Int(pick(orders))],
            "Q8" => vec![Value::Int(pick(scale.shopping_carts() as i64))],
            "Q9" => vec![Value::Int(pick(items))],
            "Q10" => vec![Value::str(SUBJECTS[(rep as usize) % SUBJECTS.len()])],
            "Q11" => vec![Value::Int(pick(items))],
            other => panic!("unknown query id {other}"),
        }
    }
}

/// The eleven join queries of the paper's Figure 15.
pub fn join_queries() -> Vec<JoinQuery> {
    vec![
        JoinQuery {
            id: "Q1",
            description: "Items and order lines of one order (order display)",
            sql: "SELECT * FROM Item AS i, Order_line AS ol \
                  WHERE i.i_id = ol.ol_i_id AND ol.ol_o_id = ?",
            supported_on_voltdb: true,
        },
        JoinQuery {
            id: "Q2",
            description: "Most recent order of a customer by user name",
            sql: "SELECT * FROM Customer AS c, Orders AS o \
                  WHERE c.c_id = o.o_c_id AND c.c_uname = ? \
                  ORDER BY o.o_date DESC, o.o_id DESC LIMIT 1",
            supported_on_voltdb: true,
        },
        JoinQuery {
            id: "Q3",
            description: "Customer with home address and country",
            sql: "SELECT * FROM Customer AS c, Address AS a, Country AS co \
                  WHERE c.c_addr_id = a.addr_id AND a.addr_co_id = co.co_id AND c.c_uname = ?",
            supported_on_voltdb: false,
        },
        JoinQuery {
            id: "Q4",
            description: "New products in a subject (ordered by title)",
            sql: "SELECT a.a_fname, a.a_lname, i.i_id, i.i_title \
                  FROM Author AS a, Item AS i \
                  WHERE a.a_id = i.i_a_id AND i.i_subject = ? \
                  ORDER BY i.i_title LIMIT 50",
            supported_on_voltdb: true,
        },
        JoinQuery {
            id: "Q5",
            description: "New products in a subject (ordered by publication date)",
            sql: "SELECT a.a_fname, a.a_lname, i.i_id, i.i_title, i.i_pub_date \
                  FROM Author AS a, Item AS i \
                  WHERE a.a_id = i.i_a_id AND i.i_subject = ? \
                  ORDER BY i.i_pub_date DESC, i.i_title LIMIT 50",
            supported_on_voltdb: true,
        },
        JoinQuery {
            id: "Q6",
            description: "Product detail with author",
            sql: "SELECT * FROM Author AS a, Item AS i \
                  WHERE a.a_id = i.i_a_id AND i.i_id = ?",
            supported_on_voltdb: true,
        },
        JoinQuery {
            id: "Q7",
            description: "Order display with customer, both addresses and countries",
            sql: "SELECT * FROM Orders AS o, Customer AS c, Address AS ship_addr, \
                  Address AS bill_addr, Country AS ship_co, Country AS bill_co \
                  WHERE o.o_c_id = c.c_id AND o.o_ship_addr_id = ship_addr.addr_id \
                  AND o.o_bill_addr_id = bill_addr.addr_id \
                  AND ship_addr.addr_co_id = ship_co.co_id \
                  AND bill_addr.addr_co_id = bill_co.co_id AND o.o_id = ?",
            supported_on_voltdb: false,
        },
        JoinQuery {
            id: "Q8",
            description: "Items in a shopping cart",
            sql: "SELECT * FROM Item AS i, Shopping_cart_line AS scl \
                  WHERE i.i_id = scl.scl_i_id AND scl.scl_sc_id = ?",
            supported_on_voltdb: true,
        },
        JoinQuery {
            id: "Q9",
            description: "Related item (admin confirm)",
            sql: "SELECT * FROM Item AS i, Item AS j \
                  WHERE j.i_id = i.i_related1 AND i.i_id = ?",
            supported_on_voltdb: false,
        },
        JoinQuery {
            id: "Q10",
            description: "Best sellers in a subject",
            sql: "SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS sold \
                  FROM Author AS a, Item AS i, Order_line AS ol, Orders AS o \
                  WHERE a.a_id = i.i_a_id AND i.i_id = ol.ol_i_id AND ol.ol_o_id = o.o_id \
                  AND i.i_subject = ? \
                  GROUP BY i.i_id ORDER BY sold DESC LIMIT 50",
            supported_on_voltdb: false,
        },
        JoinQuery {
            id: "Q11",
            description: "Customers who bought this item also bought",
            sql: "SELECT ol2.ol_i_id, SUM(ol2.ol_qty) AS bought \
                  FROM Order_line AS ol, Order_line AS ol2, Orders AS o \
                  WHERE ol.ol_o_id = o.o_id AND ol2.ol_o_id = o.o_id \
                  AND ol.ol_i_id = ? AND ol2.ol_i_id <> ol.ol_i_id \
                  GROUP BY ol2.ol_i_id ORDER BY bought DESC LIMIT 5",
            supported_on_voltdb: true,
        },
    ]
}

/// The read statements of the workload as parsed statements (used to drive
/// view selection).
pub fn join_query_statements() -> Vec<Statement> {
    join_queries().iter().map(JoinQuery::statement).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eleven_queries_parse() {
        let queries = join_queries();
        assert_eq!(queries.len(), 11);
        for q in &queries {
            let stmt = q.statement();
            let select = stmt.as_select().unwrap();
            assert!(select.is_join_query(), "{} must join tables", q.id);
        }
    }

    #[test]
    fn unsupported_voltdb_set_matches_the_paper() {
        let unsupported: Vec<&str> = join_queries()
            .iter()
            .filter(|q| !q.supported_on_voltdb)
            .map(|q| q.id)
            .collect();
        assert_eq!(unsupported, vec!["Q3", "Q7", "Q9", "Q10"]);
    }

    #[test]
    fn parameter_arity_matches_placeholders() {
        let scale = TpcwScale::new(100);
        for q in join_queries() {
            let placeholders = q.sql.matches('?').count();
            assert_eq!(
                q.params(scale, 3).len(),
                placeholders,
                "{} parameter count",
                q.id
            );
        }
    }

    #[test]
    fn parameters_are_deterministic_and_in_range() {
        let scale = TpcwScale::new(100);
        for q in join_queries() {
            assert_eq!(q.params(scale, 5), q.params(scale, 5));
            for p in q.params(scale, 9) {
                if let Value::Int(v) = p {
                    assert!(v >= 1);
                }
            }
        }
    }
}

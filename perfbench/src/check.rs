//! Result checking: order-normalized digests for the batch passes and
//! byte-exact text for the serving mix.

use hdm_core::ast::Statement;
use hdm_core::parser::parse_script;
use hdm_core::QueryResult;

/// The result as text: the header line, then one line per row. Rows are
/// sorted unless the statement's ORDER BY fixes their order.
pub fn normalized_text(result: &QueryResult, ordered: bool) -> String {
    render(result, ordered, str::to_string)
}

/// [`normalized_text`] with every fractional cell rounded to six
/// significant digits. The engines sum partitions in different orders,
/// so floating-point cells may differ in their last digits between
/// engines but nowhere else.
pub fn canonical_text(result: &QueryResult, ordered: bool) -> String {
    render(result, ordered, |cell| match cell.parse::<f64>() {
        Ok(x) if cell.contains('.') => format!("{x:.5e}"),
        _ => cell.to_string(),
    })
}

fn render(result: &QueryResult, ordered: bool, cell: impl Fn(&str) -> String) -> String {
    let mut lines: Vec<String> = result
        .to_lines()
        .iter()
        .map(|line| line.split('\t').map(&cell).collect::<Vec<_>>().join("\t"))
        .collect();
    if !ordered {
        lines.sort();
    }
    let mut text = result.columns.join("\t");
    for line in lines {
        text.push('\n');
        text.push_str(&line);
    }
    text
}

/// Whether the last statement of `script` is a SELECT with ORDER BY.
pub fn ends_ordered(script: &str) -> bool {
    matches!(
        parse_script(script).ok().and_then(|s| s.into_iter().last()),
        Some(Statement::Select(stmt)) if !stmt.order_by.is_empty()
    )
}

/// 64-bit FNV-1a.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::row::Row;
    use hdm_common::value::Value;

    #[test]
    fn canonical_text_rounds_fractional_cells_only() {
        let r = QueryResult {
            rows: vec![Row::from(vec![
                Value::Long(123_456_789),
                Value::Double(1050762.1935999996),
                Value::Str("a.b".into()),
            ])],
            columns: vec!["k".into(), "x".into(), "s".into()],
            stages: Vec::new(),
        };
        let mut other = r.clone();
        other.rows[0] = Row::from(vec![
            Value::Long(123_456_789),
            Value::Double(1050762.1935999999),
            Value::Str("a.b".into()),
        ]);
        assert_ne!(normalized_text(&r, true), normalized_text(&other, true));
        assert_eq!(canonical_text(&r, true), canonical_text(&other, true));
        assert_eq!(
            canonical_text(&r, true),
            "k\tx\ts\n123456789\t1.05076e6\ta.b"
        );
    }

    fn result(rows: &[i64]) -> QueryResult {
        QueryResult {
            rows: rows
                .iter()
                .map(|v| Row::from(vec![Value::Long(*v)]))
                .collect(),
            columns: vec!["k".into()],
            stages: Vec::new(),
        }
    }

    #[test]
    fn order_counts_only_under_order_by() {
        let (a, b) = (result(&[1, 2]), result(&[2, 1]));
        assert_eq!(normalized_text(&a, false), normalized_text(&b, false));
        assert_ne!(normalized_text(&a, true), normalized_text(&b, true));
        assert_eq!(normalized_text(&a, true), "k\n1\n2");
    }

    #[test]
    fn order_by_is_read_from_the_last_statement() {
        assert!(ends_ordered("SELECT k FROM t ORDER BY k"));
        assert!(!ends_ordered("SELECT k FROM t GROUP BY k"));
        assert!(!ends_ordered(
            "CREATE TABLE x STORED AS ORC AS SELECT k FROM t ORDER BY k; SELECT k FROM x"
        ));
        assert!(ends_ordered(hdm_workloads::tpch::queries::query(3)));
        assert!(!ends_ordered(hdm_workloads::hibench::aggregate_query()));
    }
}

//! Plain-text table printing for the figure harnesses.

/// One labeled series of values (e.g. "4 GPUs" over a core sweep).
#[derive(Debug, Clone)]
pub struct Row {
    /// Series label.
    pub(crate) label: String,
    /// Values, one per column.
    pub values: Vec<f64>,
}

impl Row {
    /// One row per GPU count of `f(cores, gpus)` over `cores`: a figure's
    /// upper panel.
    pub fn per_gpu(gpus: &[u32], cores: &[usize], f: impl Fn(usize, u32) -> f64) -> Vec<Row> {
        let row = |&g| Row::new(gpu_label(g), cores.iter().map(|&c| f(c, g)).collect());
        gpus.iter().map(row).collect()
    }

    /// One row of `f(cores, gpus)` per `(cores, gpus)` machine: a
    /// figure's lower panel.
    pub fn per_machine(machines: &[(usize, u32)], f: impl Fn(usize, u32) -> Vec<f64>) -> Vec<Row> {
        let row = |&(c, g)| Row::new(format!("{c} cores, {}", gpu_label(g)), f(c, g));
        machines.iter().map(row).collect()
    }

    fn new(label: String, values: Vec<f64>) -> Row {
        Row { label, values }
    }
}

/// "1 GPU", "2 GPUs", ...
fn gpu_label(gpus: u32) -> String {
    format!("{gpus} GPU{}", if gpus > 1 { "s" } else { "" })
}

/// Prints a figure's panels, keyed by name, as pretty JSON.
pub fn print_json(panels: serde_json::Map) {
    let json = serde_json::Value::Object(panels);
    println!(
        "{}",
        serde_json::to_string_pretty(&json).expect("serializable")
    );
}

/// `rows` as JSON: one `{"label": .., <unit>: values}` object per row.
pub fn rows_json(rows: &[Row], unit: &str) -> serde_json::Value {
    let row = |r: &Row| {
        let mut m = serde_json::Map::new();
        m.insert("label".into(), serde_json::json!(r.label));
        m.insert(unit.into(), serde_json::json!(r.values));
        serde_json::Value::Object(m)
    };
    serde_json::Value::Array(rows.iter().map(row).collect())
}

/// Prints a matrix with a header column list, one row per series. Values
/// are printed with the given unit suffix.
pub fn print_matrix(
    title: &str,
    col_name: &str,
    cols: &[impl std::fmt::Display],
    rows: &[Row],
    unit: &str,
) {
    let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
    println!("\n=== {title} ===");
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .chain([col_name.len()])
        .max()
        .unwrap_or(8)
        + 2;
    let col_w = cols.iter().map(|c| c.len()).max().unwrap_or(6).max(9) + 2;
    print!("{:label_w$}", col_name);
    for c in &cols {
        print!("{c:>col_w$}");
    }
    println!();
    for r in rows {
        print!("{:label_w$}", r.label);
        for v in &r.values {
            let s = format!("{v:.2}{unit}");
            print!("{s:>col_w$}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_without_panicking() {
        print_matrix(
            "demo",
            "cores",
            &[1, 8],
            &[
                Row {
                    label: "1 GPU".into(),
                    values: vec![99.0, 23.5],
                },
                Row {
                    label: "4 GPUs".into(),
                    values: vec![51.0, 13.0],
                },
            ],
            "m",
        );
    }
}

//! CSV persistence for datasets and feature matrices.
//!
//! The format is a self-describing long CSV: a header line, then one row per
//! `(series, variable, timestep)` observation. This keeps the layer
//! dependency-free while remaining loadable in any external tool.
//!
//! ```text
//! series,label,variable,t,value
//! 0,1,0,0,0.52
//! ...
//! ```

use crate::dataset::{Dataset, TimeSeries};
use std::fmt::Write as _;
use std::path::Path;
use tcsl_error::{TcslError, TcslResult};

/// Serializes a dataset to the long-CSV string format.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    out.push_str("series,label,variable,t,value\n");
    for (i, s) in ds.all_series().iter().enumerate() {
        let label = ds.labels().map(|ls| ls[i] as i64).unwrap_or(-1);
        for v in 0..s.n_vars() {
            for (t, &x) in s.variable(v).iter().enumerate() {
                // `write!` to a String cannot fail.
                let _ = writeln!(out, "{i},{label},{v},{t},{x}");
            }
        }
    }
    out
}

/// Parses the long-CSV format back into a dataset.
///
/// Returns `Err` on malformed rows; a label of `-1` on every row yields an
/// unlabeled dataset.
pub fn from_csv(name: &str, text: &str) -> TcslResult<Dataset> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| TcslError::empty(format!("csv {name}")))?;
    if header.trim() != "series,label,variable,t,value" {
        return Err(TcslError::parse(
            name,
            1,
            format!("unexpected header: {header}"),
        ));
    }
    // rows[series][variable] = samples in t order.
    let mut rows: Vec<Vec<Vec<f32>>> = Vec::new();
    let mut labels: Vec<i64> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| TcslError::parse(name, lineno + 2, format!("missing {what}")))
        };
        let series: usize = next("series")?
            .parse()
            .map_err(|e| TcslError::parse(name, lineno + 2, format!("bad series: {e}")))?;
        let label: i64 = next("label")?
            .parse()
            .map_err(|e| TcslError::parse(name, lineno + 2, format!("bad label: {e}")))?;
        let var: usize = next("variable")?
            .parse()
            .map_err(|e| TcslError::parse(name, lineno + 2, format!("bad variable: {e}")))?;
        let t: usize = next("t")?
            .parse()
            .map_err(|e| TcslError::parse(name, lineno + 2, format!("bad t: {e}")))?;
        let value: f32 = next("value")?
            .parse()
            .map_err(|e| TcslError::parse(name, lineno + 2, format!("bad value: {e}")))?;
        while rows.len() <= series {
            rows.push(Vec::new());
            labels.push(-1);
        }
        labels[series] = label;
        let vars = &mut rows[series];
        while vars.len() <= var {
            vars.push(Vec::new());
        }
        if vars[var].len() != t {
            return Err(TcslError::parse(
                name,
                lineno + 2,
                format!(
                    "out-of-order t={t} for series {series} var {var} (expected {})",
                    vars[var].len()
                ),
            ));
        }
        vars[var].push(value);
    }
    if rows.is_empty() {
        return Err(TcslError::empty(format!(
            "csv {name} contains no observations"
        )));
    }
    // Validate before constructing: `TimeSeries::multivariate` treats these
    // as internal invariants (panics), but here they are user data.
    let mut series = Vec::with_capacity(rows.len());
    for (i, vars) in rows.into_iter().enumerate() {
        if vars.is_empty() {
            return Err(TcslError::parse(
                name,
                0,
                format!(
                    "series {i} has no observations — series indices must be contiguous from 0"
                ),
            ));
        }
        let t0 = vars[0].len();
        if let Some(v) = vars.iter().position(|v| v.len() != t0) {
            return Err(TcslError::parse(
                name,
                0,
                format!(
                    "series {i}: variable {v} has {} samples but variable 0 has {t0} — all \
                     variables of a series must cover the same timesteps",
                    vars[v].len()
                ),
            ));
        }
        series.push(TimeSeries::multivariate(vars));
    }
    if labels.iter().all(|&l| l < 0) {
        Ok(Dataset::unlabeled(name, series))
    } else if labels.iter().all(|&l| l >= 0) {
        Ok(Dataset::labeled(
            name,
            series,
            labels.into_iter().map(|l| l as usize).collect(),
        ))
    } else {
        Err(TcslError::parse(
            name,
            0,
            "mixed labeled and unlabeled series",
        ))
    }
}

/// Writes a dataset to a CSV file.
pub fn save_csv(ds: &Dataset, path: impl AsRef<Path>) -> TcslResult<()> {
    tcsl_error::write_file(path, to_csv(ds))
}

/// Reads a dataset from a CSV file.
pub fn load_csv(name: &str, path: impl AsRef<Path>) -> TcslResult<Dataset> {
    let text = tcsl_error::read_to_string(path)?;
    from_csv(name, &text)
}

/// Serializes a feature matrix (rank-2 tensor) with column names to CSV.
pub fn matrix_to_csv(m: &tcsl_tensor::Tensor, column_names: &[String]) -> String {
    assert_eq!(m.cols(), column_names.len(), "one name per column required");
    let mut out = String::new();
    out.push_str(&column_names.join(","));
    out.push('\n');
    for i in 0..m.rows() {
        let row: Vec<String> = m.row(i).iter().map(|x| x.to_string()).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::labeled(
            "toy",
            vec![
                TimeSeries::multivariate(vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
                TimeSeries::multivariate(vec![vec![-1.0, 0.5], vec![0.25, -0.125]]),
            ],
            vec![0, 1],
        )
    }

    #[test]
    fn round_trip_labeled() {
        let ds = toy();
        let text = to_csv(&ds);
        let back = from_csv("toy", &text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.labels().unwrap(), &[0, 1]);
        assert_eq!(back.series(0).variable(1), &[3.0, 4.0]);
        assert_eq!(back.series(1).variable(0), &[-1.0, 0.5]);
    }

    #[test]
    fn round_trip_unlabeled() {
        let ds = toy().without_labels();
        let back = from_csv("u", &to_csv(&ds)).unwrap();
        assert!(back.labels().is_none());
    }

    #[test]
    fn file_round_trip() {
        let dir = tcsl_error::TempDir::new("io_file_round_trip").unwrap();
        let path = dir.join("toy.csv");
        let ds = toy();
        save_csv(&ds, &path).unwrap();
        let back = load_csv("toy", &path).unwrap();
        assert_eq!(back.len(), ds.len());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_csv("x", "nope\n1,2,3").is_err());
    }

    #[test]
    fn rejects_out_of_order_t() {
        let text = "series,label,variable,t,value\n0,0,0,1,5.0\n";
        assert!(from_csv("x", text).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(from_csv("x", "series,label,variable,t,value\n").is_err());
        assert!(from_csv("x", "").is_err());
    }

    #[test]
    fn rejects_garbage_value() {
        let text = "series,label,variable,t,value\n0,0,0,0,abc\n";
        assert!(from_csv("x", text).is_err());
    }

    #[test]
    fn rejects_gap_in_series_indices() {
        // Series 1 never appears; previously this panicked inside
        // TimeSeries::multivariate instead of returning Err.
        let text = "series,label,variable,t,value\n0,0,0,0,1.0\n2,0,0,0,2.0\n";
        let err = from_csv("x", text).unwrap_err();
        assert!(err.to_string().contains("series 1"), "{err}");
    }

    #[test]
    fn rejects_ragged_variable_lengths() {
        // Variable 1 has fewer samples than variable 0; previously a panic.
        let text = "series,label,variable,t,value\n\
                    0,0,0,0,1.0\n0,0,0,1,2.0\n0,0,1,0,3.0\n";
        let err = from_csv("x", text).unwrap_err();
        assert!(err.to_string().contains("variable 1"), "{err}");
    }

    #[test]
    fn matrix_csv_has_header_and_rows() {
        let m = tcsl_tensor::Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let csv = matrix_to_csv(&m, &["a".into(), "b".into()]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("a,b"));
        assert_eq!(lines.next(), Some("1,2"));
        assert_eq!(lines.next(), Some("3,4"));
    }
}

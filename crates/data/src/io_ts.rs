//! Parser for the sktime/UEA `.ts` text format — so the prepared archive
//! can be swapped for the *real* UEA datasets the demo ships, without any
//! further tooling.
//!
//! Supported subset (the one the UEA classification archive uses):
//!
//! ```text
//! # comment
//! @problemName BasicMotions
//! @univariate false
//! @classLabel true walking running
//! @data
//! 1.0,2.0,3.0:4.0,5.0,6.0:walking
//! ```
//!
//! Dimensions are `:`-separated, samples `,`-separated, the class label (if
//! `@classLabel true`) is the final `:` field. Missing values (`?`) are
//! linearly bridged from their neighbours. String labels are mapped to
//! dense indices in first-appearance order (the mapping is returned).

use crate::dataset::{Dataset, TimeSeries};
use std::path::Path;
use tcsl_error::{TcslError, TcslResult};

/// A parsed `.ts` file: the dataset plus the label-name mapping
/// (`labels[i]` is the original string of class id `i`; empty when the
/// file is unlabeled).
#[derive(Clone, Debug)]
pub struct TsFile {
    /// The parsed dataset.
    pub dataset: Dataset,
    /// Original class-label strings by class id.
    pub class_names: Vec<String>,
}

/// Parses `.ts` text.
pub fn parse_ts(name: &str, text: &str) -> TcslResult<TsFile> {
    let bad = |line: usize, msg: String| TcslError::parse(name, line, msg);
    let mut has_class_label = false;
    let mut in_data = false;
    let mut series = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut class_names: Vec<String> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !in_data {
            let lower = line.to_ascii_lowercase();
            if lower.starts_with("@classlabel") {
                has_class_label = lower.split_whitespace().nth(1) == Some("true");
            } else if lower == "@data" {
                in_data = true;
            } else if lower.starts_with('@') {
                // Other headers (@problemName, @univariate, ...) are
                // informational for this reader.
            } else {
                return Err(bad(lineno + 1, "expected header or @data".into()));
            }
            continue;
        }
        // Data line: dim1:dim2:...[:label]
        let mut fields: Vec<&str> = line.split(':').collect();
        let label_field = if has_class_label {
            Some(
                fields
                    .pop()
                    .ok_or_else(|| bad(lineno + 1, "missing class label".into()))?,
            )
        } else {
            None
        };
        if fields.is_empty() {
            return Err(bad(lineno + 1, "no dimensions".into()));
        }
        let mut vars: Vec<Vec<f32>> = Vec::with_capacity(fields.len());
        for (d, field) in fields.iter().enumerate() {
            let mut samples = Vec::new();
            for tok in field.split(',') {
                let tok = tok.trim();
                if tok == "?" {
                    samples.push(f32::NAN); // bridged below
                } else {
                    samples.push(tok.parse::<f32>().map_err(|e| {
                        bad(lineno + 1, format!("dim {d}: bad value '{tok}': {e}"))
                    })?);
                }
            }
            bridge_missing(&mut samples);
            vars.push(samples);
        }
        let t0 = vars[0].len();
        if vars.iter().any(|v| v.len() != t0) {
            return Err(bad(lineno + 1, "dimensions have different lengths".into()));
        }
        series.push(TimeSeries::multivariate(vars));
        if let Some(label) = label_field {
            let label = label.trim().to_string();
            let id = match class_names.iter().position(|c| c == &label) {
                Some(id) => id,
                None => {
                    class_names.push(label);
                    class_names.len() - 1
                }
            };
            labels.push(id);
        }
    }
    if series.is_empty() {
        return Err(TcslError::empty(format!("ts {name}: no data lines found")));
    }
    let dataset = if has_class_label {
        Dataset::labeled(name, series, labels)
    } else {
        Dataset::unlabeled(name, series)
    };
    Ok(TsFile {
        dataset,
        class_names,
    })
}

/// Replaces NaN runs by linear interpolation between the nearest present
/// neighbours (constant extrapolation at the ends; all-missing → zeros).
fn bridge_missing(xs: &mut [f32]) {
    let n = xs.len();
    let mut i = 0;
    while i < n {
        if !xs[i].is_nan() {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && xs[i].is_nan() {
            i += 1;
        }
        let before = start.checked_sub(1).map(|b| xs[b]);
        let after = if i < n { Some(xs[i]) } else { None };
        match (before, after) {
            (Some(b), Some(a)) => {
                let run = (i - start) as f32 + 1.0;
                for (k, x) in xs[start..i].iter_mut().enumerate() {
                    let w = (k as f32 + 1.0) / run;
                    *x = b * (1.0 - w) + a * w;
                }
            }
            (Some(b), None) => xs[start..i].iter_mut().for_each(|x| *x = b),
            (None, Some(a)) => xs[start..i].iter_mut().for_each(|x| *x = a),
            (None, None) => xs[start..i].iter_mut().for_each(|x| *x = 0.0),
        }
    }
}

/// Loads a `.ts` file from disk.
pub fn load_ts(name: &str, path: impl AsRef<Path>) -> TcslResult<TsFile> {
    let text = tcsl_error::read_to_string(path)?;
    parse_ts(name, &text)
}

/// Serializes a dataset to `.ts` text (labels written as their ids, or the
/// provided class names).
pub fn to_ts(ds: &Dataset, class_names: Option<&[String]>) -> String {
    let mut out = String::new();
    out.push_str(&format!("@problemName {}\n", ds.name));
    out.push_str(&format!("@univariate {}\n", ds.n_vars() == 1));
    match ds.labels() {
        Some(_) => out.push_str("@classLabel true\n"),
        None => out.push_str("@classLabel false\n"),
    }
    out.push_str("@data\n");
    for (i, s) in ds.all_series().iter().enumerate() {
        let dims: Vec<String> = (0..s.n_vars())
            .map(|v| {
                s.variable(v)
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        out.push_str(&dims.join(":"));
        if let Some(ls) = ds.labels() {
            let label = ls[i];
            match class_names {
                Some(names) => out.push_str(&format!(":{}", names[label])),
                None => out.push_str(&format!(":{label}")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
@problemName Toy
@univariate false
@classLabel true walking running
@data
1.0,2.0,3.0:10.0,20.0,30.0:walking
4.0,5.0,6.0:40.0,50.0,60.0:running
7.0,8.0,9.0:70.0,80.0,90.0:walking
";

    #[test]
    fn parses_multivariate_labeled() {
        let f = parse_ts("toy", SAMPLE).unwrap();
        assert_eq!(f.dataset.len(), 3);
        assert_eq!(f.dataset.n_vars(), 2);
        assert_eq!(f.dataset.labels().unwrap(), &[0, 1, 0]);
        assert_eq!(f.class_names, vec!["walking", "running"]);
        assert_eq!(f.dataset.series(1).variable(1), &[40.0, 50.0, 60.0]);
    }

    #[test]
    fn parses_unlabeled_univariate() {
        let text = "@classLabel false\n@data\n1.0,2.0\n3.0,4.0\n";
        let f = parse_ts("u", text).unwrap();
        assert!(f.dataset.labels().is_none());
        assert_eq!(f.dataset.n_vars(), 1);
        assert_eq!(f.dataset.series(1).variable(0), &[3.0, 4.0]);
    }

    #[test]
    fn missing_values_are_bridged() {
        let text = "@classLabel false\n@data\n1.0,?,3.0,?,?,6.0\n?,2.0\n";
        let f = parse_ts("m", text).unwrap();
        assert_eq!(
            f.dataset.series(0).variable(0),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        // Leading missing extrapolates from the first present value.
        assert_eq!(f.dataset.series(1).variable(0), &[2.0, 2.0]);
    }

    #[test]
    fn round_trip_through_to_ts() {
        let f = parse_ts("toy", SAMPLE).unwrap();
        let text = to_ts(&f.dataset, Some(&f.class_names));
        let back = parse_ts("toy2", &text).unwrap();
        assert_eq!(back.dataset.len(), f.dataset.len());
        assert_eq!(back.dataset.labels(), f.dataset.labels());
        assert_eq!(back.class_names, f.class_names);
        assert_eq!(back.dataset.series(2), f.dataset.series(2));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_ts("x", "").is_err());
        assert!(parse_ts("x", "@data\n").is_err());
        assert!(parse_ts("x", "not a header\n@data\n1.0\n").is_err());
        assert!(parse_ts("x", "@classLabel true a b\n@data\n1.0,abc:a\n").is_err());
        // Ragged dimensions.
        assert!(parse_ts("x", "@classLabel false\n@data\n1.0,2.0:3.0\n").is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = tcsl_error::TempDir::new("io_ts_file_round_trip").unwrap();
        let path = dir.join("toy.ts");
        std::fs::write(&path, SAMPLE).unwrap();
        let f = load_ts("toy", &path).unwrap();
        assert_eq!(f.dataset.len(), 3);
    }

    #[test]
    fn all_missing_dimension_becomes_zeros() {
        let text = "@classLabel false\n@data\n?,?,?\n";
        let f = parse_ts("z", text).unwrap();
        assert_eq!(f.dataset.series(0).variable(0), &[0.0, 0.0, 0.0]);
    }
}

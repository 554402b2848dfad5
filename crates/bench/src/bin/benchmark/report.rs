//! What the measuring child tells the parent: one line per fact on
//! stdout, whitespace-separated, so neither side needs a parser worth the
//! name.
//!
//! ```text
//! metric <name> <value> [<p25> <p75> <n>]
//! note <key> <free text>
//! fail <free text>
//! ops <attempted> <failed>
//! ```

use crate::stat::{summarize, Summary};

/// One value, with the spread of the samples behind it when it is a
/// median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub spread: Option<Summary>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, Measured)>,
    pub notes: Vec<(String, String)>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        let measured = Measured {
            value,
            spread: None,
        };
        self.metrics.push((name.to_string(), measured));
    }

    /// A metric reported as the median of `samples`.
    pub fn median(&mut self, name: &str, samples: &[f64]) -> f64 {
        let s = summarize(samples);
        let measured = Measured {
            value: s.median,
            spread: Some(s),
        };
        self.metrics.push((name.to_string(), measured));
        s.median
    }

    pub fn note(&mut self, key: &str, text: impl std::fmt::Display) {
        self.notes.push((key.to_string(), text.to_string()));
    }

    /// Count `n` operations that were attempted and went right.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation that failed or produced a wrong output.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        // Keep the line protocol intact whatever the message holds.
        self.failures.push(what.to_string().replace('\n', " "));
    }

    /// Count a check as one operation: passed when `ok`, failed otherwise.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if ok {
            self.passed(1);
        } else {
            self.fail(what);
        }
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| *m)
    }

    /// The report in the line protocol above.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            out += &match m.spread {
                Some(s) => format!("metric {name} {} {} {} {}\n", m.value, s.p25, s.p75, s.n),
                None => format!("metric {name} {}\n", m.value),
            };
        }
        for (key, text) in &self.notes {
            out += &format!("note {key} {text}\n");
        }
        for text in &self.failures {
            out += &format!("fail {text}\n");
        }
        out + &format!("ops {} {}\n", self.attempted, self.failed)
    }

    /// Read back what [`Report::render`] wrote. Lines that are not part of
    /// the protocol are an error: the child prints nothing else.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let bad = || format!("unexpected line from the measuring child: {line:?}");
            let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
            match kind {
                "metric" => {
                    let mut it = rest.split(' ');
                    let name = it.next().ok_or_else(bad)?;
                    let nums: Vec<f64> = it
                        .map(|t| t.parse::<f64>().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?;
                    let measured = match nums[..] {
                        [value] => Measured {
                            value,
                            spread: None,
                        },
                        [value, p25, p75, n] => Measured {
                            value,
                            spread: Some(Summary {
                                median: value,
                                p25,
                                p75,
                                n: n as usize,
                            }),
                        },
                        _ => return Err(bad()),
                    };
                    report.metrics.push((name.to_string(), measured));
                }
                "note" => {
                    let (key, text) = rest.split_once(' ').unwrap_or((rest, ""));
                    report.notes.push((key.to_string(), text.to_string()));
                }
                "fail" => report.failures.push(rest.to_string()),
                "ops" => {
                    let (a, f) = rest.split_once(' ').ok_or_else(bad)?;
                    report.attempted = a.parse().map_err(|_| bad())?;
                    report.failed = f.parse().map_err(|_| bad())?;
                    saw_ops = true;
                }
                _ => return Err(bad()),
            }
        }
        if saw_ops {
            Ok(report)
        } else {
            Err("the measuring child ended without an ops line".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_attempts_and_survive_the_line_protocol() {
        let mut r = Report::default();
        r.passed(3);
        r.check(true, "fine");
        r.check(false, "seq VCF != t2 VCF\nsecond line");
        r.metric("vcf.bytes", 1730.0);
        let med = r.median("call_wall_ms", &[3.0, 1.0, 2.0]);
        r.note("kernel", "avx2 lanes");
        assert_eq!(med, 2.0);
        assert_eq!((r.attempted, r.failed), (5, 1));

        let text = r.render();
        assert!(text.ends_with("fail seq VCF != t2 VCF second line\nops 5 1\n"));
        let back = Report::parse(&text).expect("parses");
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.notes, r.notes);
        assert_eq!(back.failures, r.failures);
        assert_eq!((back.attempted, back.failed), (5, 1));
        assert_eq!(back.get("vcf.bytes").map(|m| m.value), Some(1730.0));

        assert!(Report::parse("metric x 1\n").is_err(), "no ops line");
        assert!(Report::parse("hello world\nops 1 0\n").is_err());
    }
}

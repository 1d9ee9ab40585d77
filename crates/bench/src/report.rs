//! Machine-readable output for scenario runs: JSON and CSV renderers with a
//! stable schema.
//!
//! Everything here is hand-rolled (the build environment has no serde). Every
//! JSON document is built as a [`Json`] value, whose writer escapes strings
//! per RFC 8259 and renders NaN or infinity as `null`, so the output always
//! parses.

use std::fmt::{self, Write as _};

use ddio_core::experiment::scenario::{
    aggregate, AxisValue, Cell, CellResult, Scenario, Summary, SweepParams,
};

/// One executed scenario with its results, ready for rendering.
pub struct ScenarioRun {
    /// The registry entry that was run.
    pub scenario: Scenario,
    /// The cells that ran, in build order: `cells[i]` produced `results[i]`.
    pub cells: Vec<Cell>,
    /// Its cell results, in build order.
    pub results: Vec<CellResult>,
}

/// A JSON value, and through its `Display` the one JSON writer: strings are
/// escaped per RFC 8259, a non-finite [`Json::Num`] is written as `null`, and
/// an object's fields are written in the order they are listed.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer, written exactly.
    Int(u64),
    /// A float, written as Rust's `{}` prints it (`5` for 5.0), or `null`
    /// for NaN and the infinities, which JSON cannot represent.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its fields in order.
    Obj(Vec<(&'static str, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, name)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Escapes one CSV field per RFC 4180: a field containing a comma, quote,
/// or line break is wrapped in double quotes with embedded quotes doubled.
/// Every other field passes through unchanged, so output that never needed
/// quoting is byte-identical to what this renderer always produced.
fn csv_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Renders an `f64` for a CSV cell: `null` for NaN/infinity, as
/// [`Json::Num`] does, so a pathological column never rots into a bare `NaN`
/// token that most CSV readers refuse to type.
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_summary(s: &Summary) -> Json {
    Json::Obj(vec![
        ("n", s.n.into()),
        ("mean", s.mean.into()),
        ("std_dev", s.std_dev.into()),
        ("cv", s.cv().into()),
        ("min", s.min.into()),
        ("max", s.max.into()),
    ])
}

/// One cell as a JSON object. Besides its identity, trials and summary it
/// carries its last trial's diagnostics: the fault counters, the serving
/// statistics (latency percentiles from the streaming log-bucket histogram,
/// per-tenant throughput), one object per drive, one per IOP that ran a
/// cache, and the fabric's per-node NI and — under the `link` contention
/// model — per-link counters.
pub(crate) fn json_cell(r: &CellResult) -> Json {
    let point = &r.point;
    let outcome = &point.last_outcome;
    let axes = r.axes.iter().map(|a| {
        let value = match a.value {
            AxisValue::Num(v) => v.into(),
            AxisValue::Name(s) => s.into(),
        };
        Json::Obj(vec![("name", a.name.into()), ("value", value)])
    });
    let fault = &outcome.fault_stats;
    let serve = &outcome.serve;
    let tenants = serve.per_tenant.iter().map(|t| {
        Json::Obj(vec![
            ("tenant", t.tenant.into()),
            ("requests", t.requests.into()),
            ("bytes", t.bytes.into()),
            ("mibs", t.mibs.into()),
        ])
    });
    let drives = outcome
        .disk_stats
        .iter()
        .zip(&outcome.disk_utilization)
        .map(|(s, u)| {
            Json::Obj(vec![
                ("requests", s.requests.into()),
                ("sequential_hits", s.sequential_hits.into()),
                ("queue_depth_mean", s.mean_queue_depth().into()),
                ("queue_depth_max", s.max_queue_depth.into()),
                ("utilization", (*u).into()),
            ])
        });
    let cache = outcome
        .cache_stats
        .iter()
        .enumerate()
        .filter_map(|(iop, stats)| {
            let s = stats.as_ref()?;
            Some(Json::Obj(vec![
                ("iop", iop.into()),
                ("hits", s.hits.into()),
                ("misses", s.misses.into()),
                ("hit_rate", s.hit_rate().into()),
                ("prefetch_issued", s.prefetches.into()),
                ("prefetch_used", s.prefetch_used.into()),
                ("prefetch_wasted", s.prefetch_wasted.into()),
                ("evictions", s.evictions.into()),
                ("dirty_evictions", s.dirty_evictions.into()),
                ("overflows", s.overflows.into()),
                ("flushes", s.flushes.into()),
            ]))
        });
    let ni = outcome
        .ni_send_utilization
        .iter()
        .zip(&outcome.ni_recv_utilization)
        .enumerate()
        .map(|(node, (send, recv))| {
            Json::Obj(vec![
                ("node", node.into()),
                ("send_util", (*send).into()),
                ("recv_util", (*recv).into()),
            ])
        });
    let links = outcome.link_stats.iter().map(|l| {
        Json::Obj(vec![
            ("from", l.from.into()),
            ("to", l.to.into()),
            ("messages", l.messages.into()),
            ("busy_s", l.busy.as_secs_f64().into()),
        ])
    });
    Json::Obj(vec![
        ("pattern", point.pattern.as_str().into()),
        ("method", point.method.label().into()),
        ("sched", point.method.sched().name().into()),
        (
            "cache_policies",
            point.method.cache().map(|c| c.label()).into(),
        ),
        ("record_bytes", point.record_bytes.into()),
        ("layout", point.layout.short_name().into()),
        ("faults", outcome.faults.name().into()),
        ("redundancy", outcome.redundancy.name().into()),
        ("axes", axes.collect()),
        ("seed", r.seed.into()),
        ("trials", point.trials.iter().copied().collect()),
        ("summary", json_summary(&point.summary)),
        ("hardware_limit_mibs", r.hardware_limit_mibs.into()),
        (
            "fault",
            Json::Obj(vec![
                ("events_fired", fault.events_fired.into()),
                ("reconstruction_reads", fault.reconstruction_reads.into()),
                ("degraded_s", fault.degraded_secs.into()),
                ("lost_blocks", fault.lost_blocks.into()),
            ]),
        ),
        (
            "serve",
            Json::Obj(vec![
                ("requests", serve.requests.into()),
                ("served_bytes", serve.served_bytes.into()),
                ("p50_ms", serve.p50_ms.into()),
                ("p99_ms", serve.p99_ms.into()),
                ("p999_ms", serve.p999_ms.into()),
                ("mean_ms", serve.mean_ms.into()),
                ("max_ms", serve.max_ms.into()),
                ("mean_queue_ms", serve.mean_queue_ms.into()),
                ("tenants", tenants.collect()),
            ]),
        ),
        ("drives", drives.collect()),
        ("cache", cache.collect()),
        (
            "net",
            Json::Obj(vec![
                ("topology", outcome.fabric.topology.name().into()),
                ("contention", outcome.fabric.contention.name().into()),
                ("ni", ni.collect()),
                ("links", links.collect()),
            ]),
        ),
    ])
}

/// Renders a whole run as one JSON document: the `scale` header
/// (`file_mib`, the base machine's file size in whole MiB; `trials`;
/// `small_records`; `seed`), then each scenario's `name`, `title`, `cells`
/// and pooled `aggregate` (`null` without cells). The schema is stable:
/// scripts may rely on every field `json_cell` writes. Axis values are
/// numbers for numeric axes and strings for symbolic ones (e.g. `topology`).
/// Under the default composition a cell's `fault` counters are zero, its
/// `serve` has zero requests and `null` latencies, its `net.links` is empty
/// (`ni-only`), and a cacheless method has an empty `cache` and a `null`
/// `cache_policies`.
pub fn render_json(params: &SweepParams, runs: &[ScenarioRun]) -> String {
    let scenarios = runs.iter().map(|run| {
        Json::Obj(vec![
            ("name", run.scenario.name.into()),
            ("title", run.scenario.title.into()),
            ("cells", run.results.iter().map(json_cell).collect()),
            (
                "aggregate",
                aggregate(&run.results).as_ref().map(json_summary).into(),
            ),
        ])
    });
    Json::Obj(vec![
        (
            "scale",
            Json::Obj(vec![
                ("file_mib", (params.base.file_bytes >> 20).into()),
                ("trials", params.trials.into()),
                ("small_records", params.small_records.into()),
                ("seed", params.seed.into()),
            ]),
        ),
        ("scenarios", scenarios.collect()),
    ])
    .to_string()
}

/// Renders a run as CSV: one header row, then one row per cell across all
/// scenarios. Axes are packed as `name=value` pairs separated by `;`. The
/// serving columns (`serve_requests` and the latency percentiles) are
/// populated by open-loop cells; closed-loop cells carry zero requests and
/// `null` percentiles (NaN never leaks into a field).
pub fn render_csv(runs: &[ScenarioRun]) -> String {
    let mut out = String::from(
        "scenario,pattern,method,record_bytes,layout,axes,seed,n_trials,mean_mibs,std_dev,cv,min,max,hardware_limit_mibs,serve_requests,serve_p50_ms,serve_p99_ms,serve_p999_ms,serve_mean_queue_ms\n",
    );
    for run in runs {
        for r in &run.results {
            let axes = r
                .axes
                .iter()
                .map(|a| format!("{}={}", a.name, a.value))
                .collect::<Vec<_>>()
                .join(";");
            let s = &r.point.summary;
            let serve = &r.point.last_outcome.serve;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                csv_field(run.scenario.name),
                csv_field(&r.point.pattern),
                csv_field(&r.point.method.label()),
                r.point.record_bytes,
                csv_field(r.point.layout.short_name()),
                csv_field(&axes),
                r.seed,
                s.n,
                csv_f64(s.mean),
                csv_f64(s.std_dev),
                csv_f64(s.cv()),
                csv_f64(s.min),
                csv_f64(s.max),
                csv_f64(r.hardware_limit_mibs),
                serve.requests,
                csv_f64(serve.p50_ms),
                csv_f64(serve.p99_ms),
                csv_f64(serve.p999_ms),
                csv_f64(serve.mean_queue_ms)
            ));
        }
    }
    out
}

/// Renders a run as the human-readable text report (heading + tables per
/// scenario).
pub fn render_table(params: &SweepParams, runs: &[ScenarioRun]) -> String {
    let mut out = String::new();
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&ddio_core::experiment::scenario::render(
            &run.scenario,
            params,
            &run.results,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_core::experiment::scenario::{find, run_cells, SweepParams};
    use ddio_core::MachineConfig;

    fn tiny_run(name: &str) -> (SweepParams, ScenarioRun) {
        let params = SweepParams {
            base: MachineConfig {
                n_cps: 4,
                n_iops: 4,
                n_disks: 4,
                file_bytes: 256 * 1024,
                ..MachineConfig::default()
            },
            trials: 1,
            seed: 7,
            small_records: false,
        };
        let scenario = find(name).unwrap();
        let cells = (scenario.build)(&params);
        let results = run_cells(cells.clone(), params.trials, 2);
        let run = ScenarioRun {
            scenario,
            cells,
            results,
        };
        (params, run)
    }

    #[test]
    fn json_writer_matches_literal_strings() {
        let cases = [
            (Json::from("say \"hi\""), r#""say \"hi\"""#),
            (Json::from("a\\b"), r#""a\\b""#),
            (Json::from("two\nlines\ttab\r"), r#""two\nlines\ttab\r""#),
            (Json::from("\u{1}é"), r#""\u0001é""#),
            (Json::Num(f64::NAN), "null"),
            (Json::Num(f64::INFINITY), "null"),
            (Json::Num(f64::NEG_INFINITY), "null"),
            (Json::Num(2.5), "2.5"),
            (Json::Num(5.0), "5"),
            (Json::from(u64::MAX), "18446744073709551615"),
            (Json::from(true), "true"),
            (Json::from(false), "false"),
            (Json::from(None::<u64>), "null"),
            (Json::Arr(vec![]), "[]"),
            (Json::Obj(vec![]), "{}"),
            (
                Json::Obj(vec![
                    ("a", [1u64, 2].into_iter().collect()),
                    (
                        "b",
                        Json::Obj(vec![("c", Json::Null), ("d", Json::Arr(vec![]))]),
                    ),
                    ("e", vec![Json::Obj(vec![])].into_iter().collect()),
                ]),
                r#"{"a":[1,2],"b":{"c":null,"d":[]},"e":[{}]}"#,
            ),
        ];
        for (value, expected) in cases {
            assert_eq!(value.to_string(), expected, "{value:?}");
        }
    }

    #[test]
    fn rendered_json_is_valid_and_has_the_schema_landmarks() {
        let (params, run) = tiny_run("mixed-rw");
        let json = render_json(&params, &[run]);
        for landmark in [
            "\"scale\"",
            "\"scenarios\"",
            "\"cells\"",
            "\"aggregate\"",
            "\"mixed-rw\"",
            "\"hardware_limit_mibs\"",
            "\"sched\"",
            "\"drives\"",
            "\"queue_depth_mean\"",
            "\"queue_depth_max\"",
            "\"utilization\"",
            "\"net\"",
            "\"faults\":\"none\"",
            "\"redundancy\":\"none\"",
            "\"fault\":{\"events_fired\":0,\"reconstruction_reads\":0,\"degraded_s\":0,\"lost_blocks\":0}",
            "\"topology\":\"torus\"",
            "\"contention\":\"ni-only\"",
            "\"send_util\"",
            "\"recv_util\"",
            "\"links\":[]",
        ] {
            assert!(json.contains(landmark), "missing {landmark}");
        }
    }

    #[test]
    fn net_sweep_cells_carry_symbolic_axes_and_link_counters() {
        let (params, run) = tiny_run("net-sweep");
        let json = render_json(&params, &[run]);
        // Symbolic axes render as JSON strings...
        assert!(json.contains("{\"name\":\"topology\",\"value\":\"mesh\"}"));
        assert!(json.contains("{\"name\":\"net\",\"value\":\"link\"}"));
        // ...and the link model populates per-link busy counters.
        assert!(json.contains("\"busy_s\""));
        assert!(json.contains("\"contention\":\"link\""));
    }

    #[test]
    fn scale_header_renders_the_sweep_params() {
        let (_, run) = tiny_run("table1");
        let params = SweepParams {
            base: MachineConfig {
                file_bytes: 3 * 1024 * 1024,
                ..MachineConfig::default()
            },
            trials: 2,
            seed: 42,
            small_records: false,
        };
        let json = render_json(&params, &[run]);
        let header =
            r#"{"scale":{"file_mib":3,"trials":2,"small_records":false,"seed":42},"scenarios":["#;
        assert!(json.starts_with(header), "{json}");
    }

    #[test]
    fn table1_renders_with_empty_cells_and_null_aggregate() {
        let (_, run) = tiny_run("table1");
        let json = render_json(&SweepParams::default(), &[run]);
        assert!(json.contains("\"cells\":[]"));
        assert!(json.contains("\"aggregate\":null"));
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_header() {
        let (_, run) = tiny_run("mixed-rw");
        let n = run.results.len();
        let csv = render_csv(&[run]);
        assert_eq!(csv.lines().count(), n + 1);
        assert!(csv.starts_with("scenario,pattern,method"));
        assert!(csv.contains("phase=0"));
    }

    #[test]
    fn csv_fields_with_commas_quotes_or_breaks_are_rfc4180_quoted() {
        // An axis name like "record,sorted" must survive as one field.
        assert_eq!(csv_field("record,sorted=8192"), "\"record,sorted=8192\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        // Fields that never needed quoting pass through untouched, so the
        // renderer's historical output is byte-stable.
        assert_eq!(csv_field("degradation=2;phase=0"), "degradation=2;phase=0");
    }

    #[test]
    fn csv_floats_never_render_a_bare_nan() {
        assert_eq!(csv_f64(f64::NAN), "null");
        assert_eq!(csv_f64(f64::INFINITY), "null");
        assert_eq!(csv_f64(2.5), "2.5");
        let (_, run) = tiny_run("mixed-rw");
        let csv = render_csv(&[run]);
        assert!(!csv.contains("NaN"), "bare NaN leaked into CSV:\n{csv}");
    }

    #[test]
    fn closed_loop_serve_stats_render_as_null_never_nan() {
        // Regression: the latency histogram has no samples under the default
        // closed-loop composition, so every percentile is NaN — which JSON
        // cannot represent and CSV readers refuse to type. Both renderers
        // must emit `null`.
        let (params, run) = tiny_run("mixed-rw");
        let json = render_json(&params, &[run]);
        assert!(
            json.contains(
                "\"serve\":{\"requests\":0,\"served_bytes\":0,\"p50_ms\":null,\
                 \"p99_ms\":null,\"p999_ms\":null,\"mean_ms\":null,\"max_ms\":null,\
                 \"mean_queue_ms\":null,\"tenants\":[]}"
            ),
            "closed-loop serve object wrong:\n{json}"
        );
        assert!(!json.contains("NaN"), "bare NaN leaked into JSON:\n{json}");
        let (_, run) = tiny_run("mixed-rw");
        let csv = render_csv(&[run]);
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.ends_with(",0,null,null,null,null"),
            "closed-loop serve columns wrong: {row}"
        );
        assert!(!csv.contains("NaN"), "bare NaN leaked into CSV:\n{csv}");
    }

    #[test]
    fn serve_sweep_cells_report_tail_latency_and_tenant_throughput() {
        let (params, run) = tiny_run("serve-sweep");
        let json = render_json(&params, std::slice::from_ref(&run));
        // Open-loop cells carry real latencies: no nulls in the percentile
        // fields and a non-empty tenants array.
        assert!(
            !json.contains("\"p999_ms\":null"),
            "open-loop cell lost its tail"
        );
        assert!(json.contains("{\"name\":\"arrival\",\"value\":\"poisson\"}"));
        assert!(json.contains("{\"name\":\"qos\",\"value\":\"fair-share\"}"));
        assert!(json.contains("\"tenant\":0"));
        assert!(json.contains("\"mibs\":"));
        let csv = render_csv(&[run]);
        for row in csv.lines().skip(1) {
            assert!(!row.contains("null"), "open-loop row has nulls: {row}");
        }
    }

    #[test]
    fn table_render_includes_headings() {
        let (params, run) = tiny_run("record-cp-cross");
        let text = render_table(&params, &[run]);
        assert!(text.contains("Record size x CP count"));
        assert!(text.contains("cps=16 record=65536"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        // Keys go through the same escaping as values; U+001F is the last
        // control character and is escaped, the space after it is not.
        let field = Json::Obj(vec![("k\"", Json::from("\u{1f} "))]);
        assert_eq!(field.to_string(), r#"{"k\"":"\u001f "}"#);
    }
}

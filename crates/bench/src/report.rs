//! Machine-readable output for scenario runs: JSON and CSV renderers with a
//! stable schema, plus a small JSON syntax checker used by the smoke tests.
//!
//! Everything here is hand-rolled (the build environment has no serde); the
//! JSON renderer escapes strings per RFC 8259 and refuses to emit NaN or
//! infinity (they render as `null`), so the output always parses.

use ddio_core::experiment::scenario::{
    aggregate, AxisValue, CellResult, Scenario, Summary, SweepParams,
};

/// One executed scenario with its results, ready for rendering.
pub struct ScenarioRun {
    /// The registry entry that was run.
    pub scenario: Scenario,
    /// Its cell results, in build order.
    pub results: Vec<CellResult>,
}

/// Escapes `s` as the contents of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (`null` for NaN/infinity, which JSON
/// cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats as "5"; that is still a JSON number.
        s
    } else {
        "null".to_owned()
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

/// Renders an `f64` for a CSV cell: `null` for NaN/infinity, mirroring
/// [`json_f64`], so a pathological column never rots into a bare `NaN`
/// token that most CSV readers refuse to type.
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_summary(s: &Summary) -> String {
    format!(
        "{{\"n\":{},\"mean\":{},\"std_dev\":{},\"cv\":{},\"min\":{},\"max\":{}}}",
        s.n,
        json_f64(s.mean),
        json_f64(s.std_dev),
        json_f64(s.cv()),
        json_f64(s.min),
        json_f64(s.max)
    )
}

/// The per-drive diagnostics of a cell's last trial: queue-depth and
/// utilization counters, one object per drive.
fn json_drives(r: &CellResult) -> String {
    let outcome = &r.point.last_outcome;
    outcome
        .disk_stats
        .iter()
        .zip(&outcome.disk_utilization)
        .map(|(s, u)| {
            format!(
                "{{\"requests\":{},\"sequential_hits\":{},\"queue_depth_mean\":{},\
                 \"queue_depth_max\":{},\"utilization\":{}}}",
                s.requests,
                s.sequential_hits,
                json_f64(s.mean_queue_depth()),
                s.max_queue_depth,
                json_f64(*u)
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The interconnect diagnostics of a cell's last trial: the fabric
/// composition, per-node NI send/receive utilization, and — under the
/// `link` contention model — per-link busy-time counters.
fn json_net(r: &CellResult) -> String {
    let outcome = &r.point.last_outcome;
    let ni = outcome
        .ni_send_utilization
        .iter()
        .zip(&outcome.ni_recv_utilization)
        .enumerate()
        .map(|(node, (send, recv))| {
            format!(
                "{{\"node\":{node},\"send_util\":{},\"recv_util\":{}}}",
                json_f64(*send),
                json_f64(*recv)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let links = outcome
        .link_stats
        .iter()
        .map(|l| {
            format!(
                "{{\"from\":{},\"to\":{},\"messages\":{},\"busy_s\":{}}}",
                l.from,
                l.to,
                l.messages,
                json_f64(l.busy.as_secs_f64())
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"topology\":\"{}\",\"contention\":\"{}\",\"ni\":[{ni}],\"links\":[{links}]}}",
        outcome.fabric.topology.name(),
        outcome.fabric.contention.name()
    )
}

/// The serving statistics of a cell's last trial: request count, latency
/// percentiles from the streaming log-bucket histogram, and per-tenant
/// throughput. Under the default closed-loop composition no requests are
/// served, so every percentile is NaN and renders as `null` — the same
/// rule [`json_f64`]/[`csv_f64`] apply everywhere else.
fn json_serve(r: &CellResult) -> String {
    let s = &r.point.last_outcome.serve;
    let tenants = s
        .per_tenant
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\":{},\"requests\":{},\"bytes\":{},\"mibs\":{}}}",
                t.tenant,
                t.requests,
                t.bytes,
                json_f64(t.mibs)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"requests\":{},\"served_bytes\":{},\"p50_ms\":{},\"p99_ms\":{},\"p999_ms\":{},\
         \"mean_ms\":{},\"max_ms\":{},\"mean_queue_ms\":{},\"tenants\":[{tenants}]}}",
        s.requests,
        s.served_bytes,
        json_f64(s.p50_ms),
        json_f64(s.p99_ms),
        json_f64(s.p999_ms),
        json_f64(s.mean_ms),
        json_f64(s.max_ms),
        json_f64(s.mean_queue_ms)
    )
}

/// The per-IOP cache counters of a cell's last trial (empty for cacheless
/// methods like disk-directed I/O), one object per IOP that ran a cache.
fn json_cache(r: &CellResult) -> String {
    r.point
        .last_outcome
        .cache_stats
        .iter()
        .enumerate()
        .filter_map(|(iop, stats)| {
            stats.map(|s| {
                format!(
                    "{{\"iop\":{iop},\"hits\":{},\"misses\":{},\"hit_rate\":{},\
                     \"prefetch_issued\":{},\"prefetch_used\":{},\"prefetch_wasted\":{},\
                     \"evictions\":{},\"dirty_evictions\":{},\"overflows\":{},\"flushes\":{}}}",
                    s.hits,
                    s.misses,
                    json_f64(s.hit_rate()),
                    s.prefetches,
                    s.prefetch_used,
                    s.prefetch_wasted,
                    s.evictions,
                    s.dirty_evictions,
                    s.overflows,
                    s.flushes
                )
            })
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn json_cell(r: &CellResult) -> String {
    let axes = r
        .axes
        .iter()
        .map(|a| {
            let value = match a.value {
                AxisValue::Num(v) => v.to_string(),
                AxisValue::Name(s) => format!("\"{}\"", json_escape(s)),
            };
            format!("{{\"name\":\"{}\",\"value\":{value}}}", json_escape(a.name))
        })
        .collect::<Vec<_>>()
        .join(",");
    let trials = r
        .point
        .trials
        .iter()
        .map(|t| json_f64(*t))
        .collect::<Vec<_>>()
        .join(",");
    let cache_policies = match r.point.method.cache() {
        Some(cfg) => format!("\"{}\"", json_escape(&cfg.label())),
        None => "null".to_owned(),
    };
    let outcome = &r.point.last_outcome;
    let fault = format!(
        "{{\"events_fired\":{},\"reconstruction_reads\":{},\"degraded_s\":{},\"lost_blocks\":{}}}",
        outcome.fault_stats.events_fired,
        outcome.fault_stats.reconstruction_reads,
        json_f64(outcome.fault_stats.degraded_secs),
        outcome.fault_stats.lost_blocks
    );
    format!(
        "{{\"pattern\":\"{}\",\"method\":\"{}\",\"sched\":\"{}\",\"cache_policies\":{},\
         \"record_bytes\":{},\
         \"layout\":\"{}\",\"faults\":\"{}\",\"redundancy\":\"{}\",\
         \"axes\":[{}],\"seed\":{},\"trials\":[{}],\"summary\":{},\
         \"hardware_limit_mibs\":{},\"fault\":{},\"serve\":{},\"drives\":[{}],\"cache\":[{}],\
         \"net\":{}}}",
        json_escape(&r.point.pattern),
        json_escape(&r.point.method.label()),
        r.point.method.sched().name(),
        cache_policies,
        r.point.record_bytes,
        r.point.layout.short_name(),
        outcome.faults.name(),
        outcome.redundancy.name(),
        axes,
        r.seed,
        trials,
        json_summary(&r.point.summary),
        json_f64(r.hardware_limit_mibs),
        fault,
        json_serve(r),
        json_drives(r),
        json_cache(r),
        json_net(r)
    )
}

/// Renders a whole run — scale header plus every scenario's cells and pooled
/// aggregate — as one JSON document. The schema is stable: scripts may rely
/// on `scale`, `scenarios[].name`, `scenarios[].cells[]`, and the cell
/// fields emitted by this version, including each cell's `sched` policy
/// name, its `cache_policies` composition label (`null` for cacheless
/// methods), the per-drive `drives[]` queue-depth/utilization counters from
/// its last trial, the per-IOP `cache[]` hit/prefetch/flush counters (empty
/// for cacheless methods), the cell's `faults`/`redundancy` policy names
/// with a `fault` counter object (`events_fired`, `reconstruction_reads`,
/// `degraded_s`, `lost_blocks` — all zero under the default healthy
/// composition), the `serve` object (`requests`, `served_bytes`, the
/// `p50_ms`/`p99_ms`/`p999_ms`/`mean_ms`/`max_ms`/`mean_queue_ms` latency
/// summary, and the per-tenant `tenants[]` throughput counters — under the
/// default closed-loop composition `requests` is zero and every latency
/// field is `null`), and the `net` object (fabric
/// topology/contention, per-node NI `ni[]` send/receive utilization, and
/// per-link `links[]` busy-time counters — links are empty under the
/// default `ni-only` model). Axis values are numbers for numeric axes and
/// strings for symbolic ones (e.g. `topology`). The `scale` header carries
/// the run's `file_mib` (the base machine's file size in whole MiB),
/// `trials`, `small_records`, and `seed`.
pub fn render_json(params: &SweepParams, runs: &[ScenarioRun]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"scale\":{{\"file_mib\":{},\"trials\":{},\"small_records\":{},\"seed\":{}}},",
        params.base.file_bytes >> 20,
        params.trials,
        params.small_records,
        params.seed
    ));
    out.push_str("\"scenarios\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cells = run
            .results
            .iter()
            .map(json_cell)
            .collect::<Vec<_>>()
            .join(",");
        let agg = match aggregate(&run.results) {
            Some(s) => json_summary(&s),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"title\":\"{}\",\"cells\":[{}],\"aggregate\":{}}}",
            json_escape(run.scenario.name),
            json_escape(run.scenario.title),
            cells,
            agg
        ));
    }
    out.push_str("]}");
    out
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

/// A minimal recursive-descent JSON syntax checker: returns true iff `s` is
/// one complete, well-formed JSON value. Used by the smoke tests (and CI) to
/// guarantee the `--format json` output never rots into non-JSON.
pub fn json_is_valid(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let ok = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    ok && pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> bool {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        true
    } else {
        false
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(_) => parse_number(b, pos),
        None => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if eat(b, pos, b'}') {
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if !eat(b, pos, b':') || !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if eat(b, pos, b'}') {
            return true;
        }
        if !eat(b, pos, b',') {
            return false;
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if eat(b, pos, b']') {
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if eat(b, pos, b']') {
            return true;
        }
        if !eat(b, pos, b',') {
            return false;
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if !eat(b, pos, b'"') {
        return false;
    }
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return false;
                        }
                        *pos += 5;
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    let _ = eat(b, pos, b'-');
    let digits_start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == digits_start {
        return false;
    }
    if eat(b, pos, b'.') {
        let frac_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if *pos < b.len() && (b[*pos] == b'e' || b[*pos] == b'E') {
        *pos += 1;
        if *pos < b.len() && (b[*pos] == b'+' || b[*pos] == b'-') {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    *pos > start
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_core::experiment::scenario::{find, run_scenario, SweepParams};
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
        let results = run_scenario(&scenario, &params, 2);
        (params, ScenarioRun { scenario, results })
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "[1,2,3]",
            r#"{"a":[true,false,null],"b":"x\né"}"#,
            "  { \"k\" : 1 }  ",
        ] {
            assert!(json_is_valid(good), "rejected {good:?}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "NaN",
            "1 2",
            "{\"a\":1,}",
            "\"unterminated",
        ] {
            assert!(!json_is_valid(bad), "accepted {bad:?}");
        }
    }

    #[test]
    fn rendered_json_is_valid_and_has_the_schema_landmarks() {
        let (params, run) = tiny_run("mixed-rw");
        let json = render_json(&params, &[run]);
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
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
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
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
        assert!(json_is_valid(&json));
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
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
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
        assert!(json_is_valid(&json), "invalid JSON:\n{json}");
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
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}

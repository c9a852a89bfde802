//! Newline-delimited-JSON protocol.
//!
//! One request object per input line, one (or, for sweeps, several)
//! response objects per request, each on its own output line. Every
//! response carries `"ok": true|false`; errors never kill the
//! session. The protocol is transport-agnostic — the `dse_server`
//! binary wires it to stdin/stdout, the tests to in-memory buffers.
//!
//! Requests (`cmd` selects):
//!
//! | cmd        | fields                                   | reply |
//! |------------|------------------------------------------|-------|
//! | `ping`     | —                                        | `{"ok":true,"reply":"pong"}` |
//! | `submit`   | `spec`                                   | `{"ok":true,"job":N}` |
//! | `wait`     | `job`                                    | full result line |
//! | `status`   | `job`                                    | `{"ok":true,"status":"queued"…}` |
//! | `cancel`   | `job`                                    | `{"ok":true,"cancelled":bool}` |
//! | `sweep`    | `spec`, `axes`                           | one line per point + summary |
//! | `stats`    | —                                        | counters |
//! | `shutdown` | —                                        | `{"ok":true,"bye":true}`, ends session |
//!
//! A `spec` is `{"flow": "...", "tile": <preset-name or full tile
//! object>, "config": <config object, optional>, "knobs": {"name":
//! "value", ...} (optional)}`. A `config` object may be partial: its
//! members are laid over the default config's JSON (nested objects
//! member by member), and a member the default lacks is refused by
//! name, so `{"util_logic": 0.55}` is a whole config. Knobs go through
//! [`crate::sweep::apply_knob`] after the config loads. `submit`
//! refuses a config that breaks a range rule before any job exists.

use crate::executor::{DseClient, JobId, JobResult, JobStatus};
use crate::sweep::{self, PointResult, SweepAxis, SweepSpec};
use crate::{tile_preset, JobSpec};
use macro3d::jsonio;
use macro3d::FlowConfig;
use macro3d_json::Json;
use std::io::{self, BufRead, Write};

/// Serves the protocol over any line-oriented transport until EOF or
/// a `shutdown` command. Malformed lines produce `"ok": false`
/// responses; only transport-level I/O errors abort the session.
///
/// # Errors
///
/// Propagates read/write errors from the transport.
pub fn serve<R: BufRead, W: Write>(
    reader: R,
    writer: &mut W,
    client: &DseClient,
) -> io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let shutdown = handle_line(&line, writer, client)?;
        if shutdown {
            break;
        }
    }
    writer.flush()
}

fn respond<W: Write>(writer: &mut W, json: &Json) -> io::Result<()> {
    writer.write_all(json.emit().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn error_json(msg: &str) -> Json {
    Json::obj()
        .field("ok", Json::Bool(false))
        .field("error", Json::str(msg))
}

/// Handles one request line; returns `true` when the session should
/// end.
fn handle_line<W: Write>(line: &str, writer: &mut W, client: &DseClient) -> io::Result<bool> {
    let request = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => {
            respond(writer, &error_json(&format!("bad JSON: {e}")))?;
            return Ok(false);
        }
    };
    let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("");
    match cmd {
        "ping" => respond(
            writer,
            &Json::obj()
                .field("ok", Json::Bool(true))
                .field("reply", Json::str("pong")),
        )?,
        "submit" => match parse_spec(&request) {
            Ok(spec) => match client.submit(spec) {
                Ok(id) => respond(
                    writer,
                    &Json::obj()
                        .field("ok", Json::Bool(true))
                        .field("job", Json::from_u64(id.0)),
                )?,
                Err(e) => respond(writer, &error_json(&e.to_string()))?,
            },
            Err(msg) => respond(writer, &error_json(&msg))?,
        },
        "wait" => match job_id(&request) {
            Ok(id) => match client.wait(id) {
                Ok(result) => {
                    let line = Json::obj()
                        .field("ok", Json::Bool(true))
                        .field("job", Json::from_u64(id.0))
                        .field("status", Json::str(JobStatus::Done.as_str()));
                    respond(writer, &result_json(line, &result))?
                }
                Err(e) => respond(writer, &error_json(&e.to_string()))?,
            },
            Err(msg) => respond(writer, &error_json(&msg))?,
        },
        "status" => match job_id(&request) {
            Ok(id) => match client.status(id) {
                Some(status) => respond(
                    writer,
                    &Json::obj()
                        .field("ok", Json::Bool(true))
                        .field("job", Json::from_u64(id.0))
                        .field("status", Json::str(status.as_str())),
                )?,
                None => respond(writer, &error_json(&format!("unknown job {id}")))?,
            },
            Err(msg) => respond(writer, &error_json(&msg))?,
        },
        "cancel" => match job_id(&request) {
            Ok(id) => respond(
                writer,
                &Json::obj()
                    .field("ok", Json::Bool(true))
                    .field("job", Json::from_u64(id.0))
                    .field("cancelled", Json::Bool(client.cancel(id))),
            )?,
            Err(msg) => respond(writer, &error_json(&msg))?,
        },
        "sweep" => {
            match parse_sweep(&request) {
                Ok(spec) => {
                    // stream each point as it completes
                    let mut stream_err = None;
                    let outcome = sweep::run_sweep(client, &spec, |point| {
                        if stream_err.is_none() {
                            stream_err = respond(writer, &point_json(point)).err();
                        }
                    });
                    if let Some(e) = stream_err {
                        return Err(e);
                    }
                    match outcome {
                        Ok(done) => {
                            let pareto = done
                                .pareto
                                .iter()
                                .map(|&i| Json::str(done.points[i].label.clone()))
                                .collect();
                            respond(
                                writer,
                                &Json::obj()
                                    .field("ok", Json::Bool(true))
                                    .field("sweep_done", Json::Bool(true))
                                    .field("points", Json::from_usize(done.points.len()))
                                    .field("pareto", Json::Arr(pareto))
                                    .field("wall_s", Json::from_f64(done.wall_s))
                                    .field("stats", stats_json(client)),
                            )?;
                        }
                        Err(e) => respond(writer, &error_json(&e.to_string()))?,
                    }
                }
                Err(msg) => respond(writer, &error_json(&msg))?,
            }
        }
        "stats" => respond(
            writer,
            &Json::obj()
                .field("ok", Json::Bool(true))
                .field("stats", stats_json(client)),
        )?,
        "shutdown" => {
            respond(
                writer,
                &Json::obj()
                    .field("ok", Json::Bool(true))
                    .field("bye", Json::Bool(true)),
            )?;
            return Ok(true);
        }
        other => respond(writer, &error_json(&format!("unknown cmd '{other}'")))?,
    }
    Ok(false)
}

fn job_id(request: &Json) -> Result<JobId, String> {
    request
        .get("job")
        .and_then(Json::as_u64)
        .map(JobId)
        .ok_or_else(|| "missing integer field 'job'".to_string())
}

/// Decodes the protocol's spec shape (preset tiles, optional config,
/// knob overlay).
pub fn parse_spec(request: &Json) -> Result<JobSpec, String> {
    let spec = request
        .get("spec")
        .ok_or_else(|| "missing field 'spec'".to_string())?;
    let flow = spec
        .get("flow")
        .and_then(Json::as_str)
        .ok_or_else(|| "spec: missing string field 'flow'".to_string())?
        .to_string();
    let tile = match spec.get("tile") {
        None => return Err("spec: missing field 'tile'".to_string()),
        Some(t) => match t.as_str() {
            Some(preset) => {
                tile_preset(preset).ok_or_else(|| format!("unknown tile preset '{preset}'"))?
            }
            None => jsonio::tile_config_from_json(t).map_err(|e| e.to_string())?,
        },
    };
    let config = match spec.get("config") {
        None => FlowConfig::default(),
        Some(c) => {
            let mut full = jsonio::flow_config_to_json(&FlowConfig::default());
            overlay(&mut full, c, "config")?;
            jsonio::flow_config_from_json(&full).map_err(|e| e.to_string())?
        }
    };
    let mut job = JobSpec { flow, tile, config };
    if let Some(knobs) = spec.get("knobs") {
        let members = knobs
            .as_obj()
            .ok_or_else(|| "spec: 'knobs' must be an object".to_string())?;
        for (knob, value) in members {
            let value = value
                .as_str()
                .map(str::to_string)
                .unwrap_or_else(|| value.emit());
            sweep::apply_knob(&mut job, knob, &value).map_err(|e| e.to_string())?;
        }
    }
    Ok(job)
}

/// Lays the members of `over` on the object `base`, which is named
/// `path` in errors: an object member merges into `base`'s object of
/// the same name, any other value replaces `base`'s, and a member
/// `base` lacks is refused.
fn overlay(base: &mut Json, over: &Json, path: &str) -> Result<(), String> {
    let (Json::Obj(slots), Some(members)) = (base, over.as_obj()) else {
        return Err(format!("'{path}' must be an object"));
    };
    for (key, value) in members {
        let name = format!("{path}.{key}");
        let Some((_, slot)) = slots.iter_mut().find(|(k, _)| k == key) else {
            return Err(format!("unknown config field '{name}'"));
        };
        if matches!(slot, Json::Obj(_)) {
            overlay(slot, value, &name)?;
        } else {
            *slot = value.clone();
        }
    }
    Ok(())
}

fn parse_sweep(request: &Json) -> Result<SweepSpec, String> {
    let base = parse_spec(request)?;
    let mut axes = Vec::new();
    if let Some(raw) = request.get("axes") {
        let list = raw
            .as_arr()
            .ok_or_else(|| "'axes' must be an array".to_string())?;
        for axis in list {
            let knob = axis
                .get("knob")
                .and_then(Json::as_str)
                .ok_or_else(|| "axis: missing string field 'knob'".to_string())?;
            let values = axis
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| "axis: missing array field 'values'".to_string())?
                .iter()
                .map(|v| v.as_str().map(str::to_string).unwrap_or_else(|| v.emit()))
                .collect();
            axes.push(SweepAxis {
                knob: knob.to_string(),
                values,
            });
        }
    }
    Ok(SweepSpec { base, axes })
}

/// Appends a job result's members to `line`: the one serializer of a
/// [`JobResult`], shared by `wait` (which leads with `job` and
/// `status`) and sweep point lines (which lead with `point`).
fn result_json(line: Json, result: &JobResult) -> Json {
    line.field("spec_key", Json::str(result.spec_key.clone()))
        .field("cache_hit", Json::Bool(result.cache_hit))
        .field(
            "fingerprint",
            Json::str(format!("{:016x}", jsonio::ppa_fingerprint(&result.ppa))),
        )
        .field("degraded", Json::Bool(result.degradation.is_degraded()))
        .field("wall_s", Json::from_f64(result.wall_s))
        .field("reuse_depth", Json::from_usize(result.reuse_depth))
        .field(
            "stage_times",
            jsonio::stage_times_to_json(&result.ppa.stage_times),
        )
        .field("ppa", jsonio::ppa_to_json(&result.ppa))
        .field(
            "degradation",
            jsonio::degradation_to_json(&result.degradation),
        )
}

fn point_json(point: &PointResult) -> Json {
    let line = Json::obj()
        .field("ok", Json::Bool(point.result.is_ok()))
        .field("point", Json::str(point.label.clone()));
    match &point.result {
        Ok(result) => result_json(line, result),
        Err(msg) => line.field("error", Json::str(msg.clone())),
    }
}

fn stats_json(client: &DseClient) -> Json {
    let stats = client.stats();
    Json::obj()
        .field("schema_version", Json::from_u64(crate::SCHEMA_VERSION))
        .field("cache_hits", Json::from_u64(stats.cache.hits))
        .field("cache_misses", Json::from_u64(stats.cache.misses))
        .field("disk_hits", Json::from_u64(stats.cache.disk_hits))
        .field("flows_executed", Json::from_u64(stats.flows_executed))
        .field("jobs_done", Json::from_u64(stats.jobs_done))
        .field("jobs_failed", Json::from_u64(stats.jobs_failed))
        .field("jobs_cancelled", Json::from_u64(stats.jobs_cancelled))
        .field("stage_hits", Json::from_u64(stats.stage_hits))
        .field("stage_misses", Json::from_u64(stats.stage_misses))
}

//! `hms` — the data-placement advisor as a command-line tool.
//!
//! "Our models can work as a tool to help programmers for GPU
//! performance optimization and improve their productivity." This binary
//! wraps the workspace's predictor, simulator, and Algorithm-1 probe in
//! the workflow a performance engineer would actually run: inspect a
//! kernel, probe the machine, predict placement moves, get ranked
//! advice, or stand the whole thing up as an HTTP service (`hms serve`).
//! Run `hms help` for usage.
//!
//! Failure discipline: usage mistakes (unknown kernel, bad flag, illegal
//! placement) exit 2 with a one-line diagnostic; model failures on a
//! valid query (non-finite prediction, numerical trouble) exit 1. The
//! tool never panics on user input.

mod args;

use args::{parse, Command, MoveSpec, USAGE};
use hms_core::{ModelOptions, Predictor, SearchStrategy};
use hms_dram::{detect_mapping, AddressMapping, MemoryController};
use hms_kernels::{registry, Scale};
use hms_serve::api::{Advisor, ApiError, Effort};
use hms_serve::wire::v1::{PredictRequest, RankRequest};
use hms_serve::{signal, ConfigRegistry, ServerConfig, PRESET_NAMES};
use hms_sim::simulate_default;
use hms_trace::materialize;
use hms_types::GpuConfig;
use std::time::{Duration, Instant};

/// A terminal failure: message for stderr plus the process exit code
/// (2 = the query was wrong, 1 = the model failed on a valid query).
struct CliError {
    code: i32,
    msg: String,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            msg: msg.into(),
        }
    }
}

impl From<ApiError> for CliError {
    fn from(e: ApiError) -> Self {
        let code = match e {
            ApiError::BadRequest(_) | ApiError::UnknownKernel(_) => 2,
            ApiError::Model(_) => 1,
        };
        CliError {
            code,
            msg: e.to_string(),
        }
    }
}

impl From<hms_types::HmsError> for CliError {
    fn from(e: hms_types::HmsError) -> Self {
        // Same classification the server uses: validation failures are
        // the caller's fault, the rest are the model's.
        CliError::from(ApiError::from(e))
    }
}

fn main() {
    // Die quietly on a closed pipe (`hms list | head`) like any unix
    // tool; the serve command re-ignores SIGPIPE before taking traffic.
    signal::sigpipe_default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(cmd) {
        eprintln!("error: {}", e.msg);
        std::process::exit(e.code);
    }
}

fn predictor(cfg: &GpuConfig, train: bool) -> Predictor {
    if train {
        eprintln!("training T_overlap on the built-in training suite...");
        let (p, _) = hms_bench::trained_predictor(
            &hms_bench::Harness {
                cfg: cfg.clone(),
                scale: Scale::Full,
            },
            ModelOptions::full(),
        );
        p
    } else {
        Predictor::new(cfg.clone())
    }
}

fn advisor(cfg: &GpuConfig, train: bool) -> Advisor {
    Advisor::new(cfg.clone(), predictor(cfg, train))
}

/// Resolve `--config NAME` to a GPU preset (default: the paper's K80).
fn gpu_config(config: Option<&str>) -> Result<GpuConfig, CliError> {
    match config {
        None => Ok(GpuConfig::tesla_k80()),
        Some(name) => hms_serve::preset(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown config `{name}` (available: {})",
                PRESET_NAMES.join(", ")
            ))
        }),
    }
}

fn to_moves(moves: &[MoveSpec]) -> Vec<(String, hms_types::MemorySpace)> {
    moves.iter().map(|m| (m.array.clone(), m.space)).collect()
}

fn run(cmd: Command) -> Result<(), CliError> {
    let cfg = GpuConfig::tesla_k80();
    match cmd {
        Command::Help => println!("{USAGE}"),
        Command::List => {
            println!("{:<18} {:<10} arrays", "kernel", "warps");
            for spec in registry() {
                let kt = (spec.build)(Scale::Full);
                println!(
                    "{:<18} {:<10} {}",
                    spec.name,
                    kt.geometry.total_warps(),
                    kt.arrays
                        .iter()
                        .map(|a| {
                            format!(
                                "{}[{}{}]",
                                a.name,
                                a.dims.elements(),
                                if a.written { ", W" } else { "" }
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
        }
        Command::Probe => {
            let truth = AddressMapping::k80_like(cfg.dram.total_banks());
            let d = detect_mapping(
                || MemoryController::new(truth.clone(), cfg.dram, false),
                truth.addr_bits,
            );
            println!("column/byte bits: {:?}", d.column_bits());
            println!("row bits:         {:?}", d.row_bits());
            println!("bank bits:        {:?}", d.bank_bits());
            println!(
                "latencies: hit {:.0} ns, miss {:.0} ns, conflict {:.0} ns",
                cfg.cycles_to_ns(d.hit_latency as f64),
                cfg.cycles_to_ns(d.miss_latency as f64),
                cfg.cycles_to_ns(d.conflict_latency as f64),
            );
        }
        Command::Simulate {
            kernel,
            scale,
            moves,
        } => {
            let adv = advisor(&cfg, false);
            let kt = adv.kernel(&kernel, scale)?;
            let pm = adv.resolve_placement(&kt, &to_moves(&moves))?;
            let ct = materialize(&kt, &pm, &cfg)?;
            let r = simulate_default(&ct, &cfg)?;
            println!("placement: {}", pm.describe(&kt.arrays));
            println!("cycles: {}  ({:.1} us)", r.cycles, r.time_ns / 1000.0);
            println!();
            for (name, value) in r.events.named() {
                if value != 0.0 {
                    println!("  {name:<26} {value:>14.0}");
                }
            }
        }
        Command::Dump {
            kernel,
            scale,
            moves,
        } => {
            let adv = advisor(&cfg, false);
            let kt = adv.kernel(&kernel, scale)?;
            let pm = adv.resolve_placement(&kt, &to_moves(&moves))?;
            let ct = materialize(&kt, &pm, &cfg)?;
            print!("{}", hms_trace::dump(&ct));
        }
        Command::Predict {
            kernel,
            scale,
            moves,
            train,
            json,
            config,
        } => {
            if moves.is_empty() {
                return Err(CliError::usage("predict needs at least one --move"));
            }
            let cfg = gpu_config(config.as_deref())?;
            let adv = advisor(&cfg, train);
            let q = PredictRequest {
                kernel,
                scale,
                moves: to_moves(&moves),
                config,
            };
            let mut effort = Effort::default();
            let (body, pred) = adv.predict(&q, &mut effort)?;
            if json {
                // The exact bytes `POST /v1/predict` would return.
                print!("{}", body.encode_pretty());
                return Ok(());
            }
            let kt = adv.kernel(&q.kernel, q.scale)?;
            let sample = kt.default_placement();
            let target = adv.resolve_placement(&kt, &q.moves)?;
            let profile = adv.profile(&kt, q.scale, &mut effort)?;
            let measured = {
                let ct = materialize(&kt, &target, &cfg)?;
                simulate_default(&ct, &cfg)?.cycles
            };
            println!("sample placement:  {}", sample.describe(&kt.arrays));
            println!("target placement:  {}", target.describe(&kt.arrays));
            println!("sample measured:   {} cycles", profile.measured_cycles);
            println!(
                "target predicted:  {:.0} cycles  (T_comp {:.0} + T_mem {:.0} - T_overlap {:.0})",
                pred.cycles, pred.t_comp, pred.t_mem, pred.t_overlap
            );
            println!("target measured:   {measured} cycles (verification run)");
            println!(
                "prediction error:  {:.1}%",
                (pred.cycles / measured as f64 - 1.0).abs() * 100.0
            );
        }
        Command::Advise {
            kernel,
            scale,
            train,
            top,
            json,
            config,
        } => {
            let cfg = gpu_config(config.as_deref())?;
            let adv = advisor(&cfg, train);
            let q = RankRequest {
                kernel,
                scale,
                top,
                prune: false,
                threads: 1,
                config,
                strategy: None,
                seed: None,
                beam: None,
            };
            let mut effort = Effort::default();
            let (body, _outcome) = adv.rank(&q, false, None, &mut effort)?;
            if json {
                print!("{}", body.encode_pretty());
                return Ok(());
            }
            print_ranking(&body, top)?;
        }
        Command::Search {
            kernel,
            scale,
            train,
            top,
            stats,
            prune,
            strategy,
            seed,
            beam,
            threads,
            json,
            deadline_ms,
            skel_cache,
            config,
        } => {
            let cfg = gpu_config(config.as_deref())?;
            let mut adv = advisor(&cfg, train);
            if let Some(dir) = &skel_cache {
                adv = adv.with_skeleton_cache(dir.clone());
            }
            // The deadline clock starts now — profile simulation and
            // search both count against it, like a server request.
            let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            let q = RankRequest {
                kernel,
                scale,
                top,
                prune,
                threads,
                config,
                strategy,
                seed,
                beam,
            };
            // Resolve before any model work so a contradictory flag set
            // (`--prune --strategy beam`, `--seed` without `--strategy
            // local`, ...) is a usage error — exit 2, same rule the
            // server enforces with a 400.
            let strategy: SearchStrategy = q.resolve_strategy()?;
            // The JSON body intentionally omits wall-clock timings; the
            // human `--stats` view wants them, so run the full outcome
            // path here and the body builder for `--json`.
            if json {
                let mut effort = Effort::default();
                let (body, _outcome) = adv.rank(&q, true, deadline, &mut effort)?;
                print!("{}", body.encode_pretty());
                return Ok(());
            }
            let kt = adv.kernel(&q.kernel, q.scale)?;
            let mut effort = Effort::default();
            let profile = adv.profile(&kt, q.scale, &mut effort)?;
            let sample = kt.default_placement();
            let mut req = hms_core::SearchRequest::new(&kt.arrays, &sample)
                .read_only_candidates()
                .strategy(strategy)
                .threads(q.threads)
                .deadline(deadline);
            if let Some(dir) = &skel_cache {
                req = req.skeleton_cache(dir.clone());
            }
            let outcome = req.run(&adv.predictor, &profile)?;
            if outcome.partial {
                println!(
                    "deadline hit after {}ms: best-so-far ranking (partial)",
                    deadline_ms.unwrap_or(0)
                );
            }
            println!("{} placements ranked; top {top}:", outcome.ranked.len());
            for r in outcome.ranked.iter().take(top) {
                println!(
                    "  {:<44} predicted {:>10.0} cycles",
                    r.placement.describe(&kt.arrays),
                    r.predicted_cycles
                );
            }
            if stats {
                println!();
                print!("{}", outcome.stats);
            }
        }
        Command::Serve {
            addr,
            port,
            threads,
            shards,
            cache_entries,
            deadline_ms,
            queue,
            train,
            skel_cache,
            tenants,
        } => {
            // A client hanging up mid-response must be an io error on
            // that one connection, not process death.
            signal::sigpipe_ignore();
            let mut adv = advisor(&cfg, train);
            if let Some(dir) = &skel_cache {
                adv = adv.with_skeleton_cache(dir.clone());
            }
            // Tenant 0 is the default config (requests without a
            // `config` member); `--tenant NAME=PRESET` adds the rest.
            let mut registry = ConfigRegistry::new("default", adv);
            for (name, preset) in &tenants {
                let tcfg = gpu_config(Some(preset))
                    .map_err(|e| CliError::usage(format!("--tenant {name}: {}", e.msg)))?;
                registry = registry.with(name.clone(), advisor(&tcfg, false));
            }
            let handle = ServerConfig::new()
                .bind(format!("{addr}:{port}"))
                .workers(threads)
                .shards(shards)
                .cache_entries(cache_entries)
                .deadline(Duration::from_millis(deadline_ms))
                .queue_depth(queue)
                .spawn(registry)
                .map_err(|e| CliError {
                    code: 1,
                    msg: format!("cannot bind `{addr}:{port}`: {e}"),
                })?;
            // The smoke tests parse this line to find the ephemeral port.
            println!("listening on http://{}", handle.addr());
            signal::install();
            while !signal::shutdown_requested() {
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("shutting down (draining in-flight requests)...");
            handle.shutdown();
        }
    }
    Ok(())
}

/// Human-readable top-k from the advise response body (single source of
/// truth for the ranking — same body the server sends).
fn print_ranking(body: &hms_serve::Json, top: usize) -> Result<(), CliError> {
    use hms_serve::Json;
    let total = body
        .get("ranked_total")
        .and_then(Json::as_usize)
        .ok_or_else(|| CliError::usage("malformed ranking body"))?;
    let ranked = body
        .get("ranked")
        .and_then(Json::as_arr)
        .ok_or_else(|| CliError::usage("malformed ranking body"))?;
    println!("{total} placements ranked; top {top}:");
    for r in ranked.iter().take(top) {
        let cycles = r
            .get("predicted_cycles")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let placement = r
            .get("placement")
            .and_then(Json::as_obj)
            .map(|members| {
                members
                    .iter()
                    .map(|(name, space)| format!("{name}={}", space.as_str().unwrap_or("?")))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        println!("  {placement:<44} predicted {cycles:>10.0} cycles");
    }
    Ok(())
}

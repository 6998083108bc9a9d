//! Minimal argument parsing for the `hms` tool (no external parser —
//! the surface is five subcommands and a handful of flags).

use hms_kernels::Scale;
use hms_types::MemorySpace;

/// A parsed `--move array=SPACE` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveSpec {
    pub array: String,
    pub space: MemorySpace,
}

impl MoveSpec {
    /// Parse `name=SPACE` with the paper's short space notation
    /// (`G`, `T`, `2T`, `C`, `S`).
    pub fn parse(s: &str) -> Result<MoveSpec, String> {
        let (array, space) = s
            .split_once('=')
            .ok_or_else(|| format!("expected `array=SPACE`, got `{s}`"))?;
        if array.is_empty() {
            return Err(format!("empty array name in `{s}`"));
        }
        let space = MemorySpace::from_short(space)
            .ok_or_else(|| format!("unknown space `{space}` (use G, T, 2T, C, or S)"))?;
        Ok(MoveSpec {
            array: array.to_owned(),
            space,
        })
    }
}

/// The `hms` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the built-in kernels.
    List,
    /// Probe the DRAM address mapping (Algorithm 1).
    Probe,
    /// Simulate a kernel and print its event set.
    Simulate {
        kernel: String,
        scale: Scale,
        moves: Vec<MoveSpec>,
    },
    /// Predict a target placement from a profiled sample.
    Predict {
        kernel: String,
        scale: Scale,
        moves: Vec<MoveSpec>,
        train: bool,
        json: bool,
        /// Named GPU configuration preset (`--config`); `None` = K80.
        config: Option<String>,
    },
    /// Rank every legal placement of the kernel's read-only arrays.
    Advise {
        kernel: String,
        scale: Scale,
        train: bool,
        top: usize,
        json: bool,
        /// Named GPU configuration preset (`--config`); `None` = K80.
        config: Option<String>,
    },
    /// Search the placement space through the incremental engine, with
    /// a choice of strategy and observability stats.
    Search {
        kernel: String,
        scale: Scale,
        train: bool,
        top: usize,
        stats: bool,
        /// `--prune`: the legacy branch-and-bound flag, a spelling of
        /// exhaustive search that conflicts with `--strategy`.
        prune: bool,
        /// Search strategy spelling (`--strategy beam|halving|local|
        /// exhaustive`, or `bnb` for exhaustive); `None` = exhaustive.
        strategy: Option<String>,
        /// Local-search seed (`--seed`, only with `--strategy local`).
        seed: Option<u64>,
        /// Beam width (`--beam`, only with `--strategy beam`).
        beam: Option<usize>,
        threads: usize,
        json: bool,
        /// Wall-clock budget for the search; past it, the best-so-far
        /// ranking is returned flagged partial. `None` = unbounded.
        deadline_ms: Option<u64>,
        /// Directory for the persistent engine-skeleton cache.
        skel_cache: Option<String>,
        /// Named GPU configuration preset (`--config`); `None` = K80.
        config: Option<String>,
    },
    /// Run the placement-advisory HTTP server.
    Serve {
        addr: String,
        port: u16,
        /// Worker threads for cold model work (`--workers`, with
        /// `--threads` kept as an alias). 0 = auto.
        threads: usize,
        /// Event-loop shards (`--shards`). 0 = auto.
        shards: usize,
        cache_entries: usize,
        deadline_ms: u64,
        queue: usize,
        train: bool,
        /// Directory for the persistent engine-skeleton cache.
        skel_cache: Option<String>,
        /// Extra tenants: `--tenant NAME=PRESET`, repeatable. The
        /// default tenant (the K80, or `--config`) is always present.
        tenants: Vec<(String, String)>,
    },
    /// Dump a kernel's concrete trace in the v1 text format.
    Dump {
        kernel: String,
        scale: Scale,
        moves: Vec<MoveSpec>,
    },
    /// Print usage.
    Help,
}

/// Parse a full argument vector (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let rest: Vec<&String> = it.collect();

    let mut scale = Scale::Full;
    let mut moves = Vec::new();
    let mut train = false;
    let mut top = 5usize;
    let mut stats = false;
    let mut prune = false;
    let mut threads = 0usize;
    let mut json = false;
    let mut addr = String::from("127.0.0.1");
    let mut port = 7070u16;
    let mut cache_entries = 4096usize;
    let mut deadline_ms: Option<u64> = None;
    let mut queue = 128usize;
    let mut skel_cache: Option<String> = None;
    let mut shards = 0usize;
    let mut config: Option<String> = None;
    let mut strategy: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut beam: Option<usize> = None;
    let mut tenants: Vec<(String, String)> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--scale" => {
                i += 1;
                let v = rest.get(i).ok_or("--scale needs a value")?;
                scale = match v.as_str() {
                    "full" => Scale::Full,
                    "test" => Scale::Test,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--move" => {
                i += 1;
                let v = rest.get(i).ok_or("--move needs `array=SPACE`")?;
                moves.push(MoveSpec::parse(v)?);
            }
            "--train" => train = true,
            "--stats" => stats = true,
            "--prune" => prune = true,
            "--json" => json = true,
            "--addr" => {
                i += 1;
                addr = rest.get(i).ok_or("--addr needs a value")?.to_string();
            }
            "--port" => {
                i += 1;
                let v = rest.get(i).ok_or("--port needs a number")?;
                port = v.parse().map_err(|_| format!("bad --port value `{v}`"))?;
            }
            "--cache-entries" => {
                i += 1;
                let v = rest.get(i).ok_or("--cache-entries needs a number")?;
                cache_entries = v
                    .parse()
                    .map_err(|_| format!("bad --cache-entries value `{v}`"))?;
            }
            "--deadline-ms" => {
                i += 1;
                let v = rest.get(i).ok_or("--deadline-ms needs a number")?;
                deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --deadline-ms value `{v}`"))?,
                );
            }
            "--queue" => {
                i += 1;
                let v = rest.get(i).ok_or("--queue needs a number")?;
                queue = v.parse().map_err(|_| format!("bad --queue value `{v}`"))?;
            }
            "--skel-cache" => {
                i += 1;
                let v = rest.get(i).ok_or("--skel-cache needs a directory")?;
                skel_cache = Some(v.to_string());
            }
            "--config" => {
                i += 1;
                let v = rest.get(i).ok_or("--config needs a name")?;
                config = Some(v.to_string());
            }
            "--shards" => {
                i += 1;
                let v = rest.get(i).ok_or("--shards needs a number")?;
                shards = v.parse().map_err(|_| format!("bad --shards value `{v}`"))?;
            }
            "--strategy" => {
                i += 1;
                let v = rest.get(i).ok_or("--strategy needs a name")?;
                strategy = Some(v.to_string());
            }
            "--seed" => {
                i += 1;
                let v = rest.get(i).ok_or("--seed needs a number")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed value `{v}`"))?);
            }
            "--beam" => {
                i += 1;
                let v = rest.get(i).ok_or("--beam needs a number")?;
                beam = Some(v.parse().map_err(|_| format!("bad --beam value `{v}`"))?);
            }
            "--tenant" => {
                i += 1;
                let v = rest.get(i).ok_or("--tenant needs `NAME=PRESET`")?;
                let (name, preset) = v
                    .split_once('=')
                    .ok_or_else(|| format!("expected `NAME=PRESET`, got `{v}`"))?;
                if name.is_empty() || preset.is_empty() {
                    return Err(format!("expected `NAME=PRESET`, got `{v}`"));
                }
                tenants.push((name.to_string(), preset.to_string()));
            }
            "--threads" | "--workers" => {
                i += 1;
                let v = rest.get(i).ok_or("--threads needs a number")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value `{v}`"))?;
            }
            "--top" => {
                i += 1;
                let v = rest.get(i).ok_or("--top needs a number")?;
                top = v.parse().map_err(|_| format!("bad --top value `{v}`"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            pos => positional.push(pos),
        }
        i += 1;
    }

    let kernel = |pos: &[&str]| -> Result<String, String> {
        pos.first()
            .map(|s| s.to_string())
            .ok_or_else(|| "missing kernel name".into())
    };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "probe" => Ok(Command::Probe),
        "simulate" => Ok(Command::Simulate {
            kernel: kernel(&positional)?,
            scale,
            moves,
        }),
        "predict" => Ok(Command::Predict {
            kernel: kernel(&positional)?,
            scale,
            moves,
            train,
            json,
            config,
        }),
        "advise" => Ok(Command::Advise {
            kernel: kernel(&positional)?,
            scale,
            train,
            top,
            json,
            config,
        }),
        "search" => Ok(Command::Search {
            kernel: kernel(&positional)?,
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
        }),
        "serve" => Ok(Command::Serve {
            addr,
            port,
            threads,
            shards,
            cache_entries,
            deadline_ms: deadline_ms.unwrap_or(10_000),
            queue,
            train,
            skel_cache,
            tenants,
        }),
        "dump" => Ok(Command::Dump {
            kernel: kernel(&positional)?,
            scale,
            moves,
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command `{other}` (try `hms help`)")),
    }
}

pub const USAGE: &str = "\
hms — data-placement advisor for GPU heterogeneous memory systems

USAGE:
    hms list
    hms probe
    hms simulate <kernel> [--scale full|test] [--move array=SPACE]...
    hms predict  <kernel> [--scale full|test] [--config NAME] [--train] [--json] --move array=SPACE...
    hms advise   <kernel> [--scale full|test] [--config NAME] [--train] [--top N] [--json]
    hms search   <kernel> [--scale full|test] [--config NAME] [--train] [--top N] [--stats] [--prune] [--strategy NAME] [--beam W] [--seed N] [--threads N] [--deadline-ms N] [--skel-cache DIR] [--json]
    hms dump     <kernel> [--scale full|test] [--move array=SPACE]...
    hms serve    [--addr HOST] [--port N] [--workers N] [--shards N] [--cache-entries N] [--deadline-ms N] [--queue N] [--tenant NAME=PRESET]... [--train] [--skel-cache DIR]

SPACES: G (global), T (1-D texture), 2T (2-D texture), C (constant), S (shared)

`search` ranks like `advise` but runs the incremental delta-evaluation
engine; `--stats` prints its observability counters (full rewrites,
delta hits, rewrite reduction). `--strategy` picks the search algorithm
by name: `exhaustive` (the default), or the anytime strategies `beam`
(beam search, width via `--beam`), `halving` (successive halving over
skeleton groups), and `local` (seeded genetic local search, seed via
`--seed`). Anytime strategies trade coverage for time and report a
sound optimality-gap upper bound in `--stats`/`--json`: the true
optimum is never better than best-found / (1 + gap). `--prune` and
`--strategy bnb` are accepted spellings of exhaustive; `--prune`
conflicts with `--strategy`, and `--beam`/`--seed` require their
strategy.
`--deadline-ms` bounds the search wall clock: past it the best-so-far
ranking is returned, flagged partial in the output. `--skel-cache DIR`
persists the engine's walk skeletons in DIR across runs (versioned and
checksummed; stale or corrupt entries silently rebuild, results are
bit-identical either way).

`--json` prints the exact response body the HTTP server would send for
the equivalent request (byte-identical, asserted by tests).

`--config NAME` selects a GPU configuration preset (k80, c2050,
test-small) instead of the default Tesla K80 — the same names requests
can send in their `config` member against a multi-tenant server.

`serve` runs the advisory HTTP server: POST /v1/predict, /v1/advise,
/v1/search; GET /v1/kernels, /metrics, /healthz. `--port 0` picks an
ephemeral port (the bound address is printed). SIGINT/SIGTERM drain
in-flight requests and exit cleanly. The event-driven core answers warm
(cached) requests on `--shards` poll loops and runs cold model work on
`--workers` threads; identical concurrent requests are answered by one
computation. `--cache-entries` caps the response bodies cached, all
endpoints and tenants together. `--tenant NAME=PRESET` (repeatable)
adds a named GPU configuration requests select with \"config\": NAME.

EXAMPLES:
    hms advise neuralnet --train
    hms search spmv --stats
    hms search wide8 --scale test --strategy beam --beam 16 --stats
    hms search wide8 --scale test --strategy local --seed 7 --deadline-ms 2000
    hms predict spmv --move d_vec=G --move rowDelimiters=C
    hms predict spmv --json --move d_vec=T
    hms simulate md --move d_position=T
    hms serve --port 7070 --threads 4
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_moves_and_flags() {
        let cmd = parse(&v(&[
            "predict",
            "spmv",
            "--move",
            "d_vec=G",
            "--move",
            "rowDelimiters=C",
            "--train",
        ]))
        .unwrap();
        let Command::Predict {
            kernel,
            moves,
            train,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(kernel, "spmv");
        assert!(train);
        assert_eq!(moves.len(), 2);
        assert_eq!(
            moves[0],
            MoveSpec {
                array: "d_vec".into(),
                space: MemorySpace::Global
            }
        );
        assert_eq!(moves[1].space, MemorySpace::Constant);
    }

    #[test]
    fn parses_scale_and_top() {
        let cmd = parse(&v(&["advise", "md", "--scale", "test", "--top", "3"])).unwrap();
        let Command::Advise {
            kernel,
            scale,
            top,
            train,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(kernel, "md");
        assert_eq!(scale, Scale::Test);
        assert_eq!(top, 3);
        assert!(!train);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&["predict"])).is_err()); // missing kernel
        assert!(parse(&v(&["predict", "x", "--move", "novalue"])).is_err());
        assert!(parse(&v(&["predict", "x", "--move", "a=Q"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["simulate", "x", "--scale", "medium"])).is_err());
        assert!(parse(&v(&["simulate", "x", "--wat"])).is_err());
    }

    #[test]
    fn parses_search_flags() {
        let cmd = parse(&v(&[
            "search",
            "spmv",
            "--stats",
            "--prune",
            "--threads",
            "2",
            "--top",
            "7",
        ]))
        .unwrap();
        let Command::Search {
            kernel,
            top,
            stats,
            prune,
            threads,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(kernel, "spmv");
        assert_eq!(top, 7);
        assert!(stats);
        assert!(prune);
        assert_eq!(threads, 2);
        assert!(parse(&v(&["search", "x", "--threads", "many"])).is_err());
        assert!(parse(&v(&["search"])).is_err());

        let Command::Search { deadline_ms, .. } = parse(&v(&["search", "x"])).unwrap() else {
            panic!()
        };
        assert_eq!(deadline_ms, None);
        let Command::Search { deadline_ms, .. } =
            parse(&v(&["search", "x", "--deadline-ms", "40"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(deadline_ms, Some(40));
    }

    #[test]
    fn parses_strategy_flags() {
        let cmd = parse(&v(&[
            "search",
            "wide8",
            "--strategy",
            "beam",
            "--beam",
            "16",
            "--scale",
            "test",
        ]))
        .unwrap();
        let Command::Search {
            strategy,
            beam,
            seed,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(strategy.as_deref(), Some("beam"));
        assert_eq!(beam, Some(16));
        assert_eq!(seed, None);

        let Command::Search { strategy, seed, .. } = parse(&v(&[
            "search",
            "wide8",
            "--strategy",
            "local",
            "--seed",
            "7",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(strategy.as_deref(), Some("local"));
        assert_eq!(seed, Some(7));

        // Absent flags stay absent (resolution happens in main, where a
        // conflict is a usage error).
        let Command::Search {
            strategy,
            seed,
            beam,
            ..
        } = parse(&v(&["search", "wide8"])).unwrap()
        else {
            panic!()
        };
        assert!(strategy.is_none() && seed.is_none() && beam.is_none());

        assert!(parse(&v(&["search", "wide8", "--strategy"])).is_err());
        assert!(parse(&v(&["search", "wide8", "--seed", "lots"])).is_err());
        assert!(parse(&v(&["search", "wide8", "--beam", "wide"])).is_err());
    }

    #[test]
    fn parses_serve_and_json() {
        let cmd = parse(&v(&[
            "serve",
            "--port",
            "0",
            "--threads",
            "3",
            "--cache-entries",
            "64",
            "--deadline-ms",
            "250",
            "--queue",
            "9",
        ]))
        .unwrap();
        let Command::Serve {
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
        } = cmd
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1");
        assert_eq!(port, 0);
        assert_eq!(threads, 3);
        assert_eq!(cache_entries, 64);
        assert_eq!(deadline_ms, 250);
        assert_eq!(queue, 9);
        assert!(!train);
        assert_eq!(skel_cache, None);
        assert_eq!(shards, 0);
        assert!(tenants.is_empty());
        assert!(parse(&v(&["serve", "--port", "high"])).is_err());

        let cmd = parse(&v(&["predict", "spmv", "--json", "--move", "d_vec=T"])).unwrap();
        let Command::Predict { json, .. } = cmd else {
            panic!()
        };
        assert!(json);
        let Command::Search { json, .. } = parse(&v(&["search", "spmv"])).unwrap() else {
            panic!()
        };
        assert!(!json);
    }

    #[test]
    fn parses_skel_cache() {
        let Command::Search { skel_cache, .. } =
            parse(&v(&["search", "spmv", "--skel-cache", "/tmp/hms-skel"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(skel_cache.as_deref(), Some("/tmp/hms-skel"));
        let Command::Serve { skel_cache, .. } =
            parse(&v(&["serve", "--skel-cache", "cachedir"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(skel_cache.as_deref(), Some("cachedir"));
        let Command::Search { skel_cache, .. } = parse(&v(&["search", "spmv"])).unwrap() else {
            panic!()
        };
        assert_eq!(skel_cache, None);
        assert!(parse(&v(&["search", "spmv", "--skel-cache"])).is_err());
    }

    #[test]
    fn parses_multi_tenant_serve_flags() {
        let cmd = parse(&v(&[
            "serve",
            "--workers",
            "4",
            "--shards",
            "2",
            "--tenant",
            "legacy=c2050",
            "--tenant",
            "tiny=test-small",
        ]))
        .unwrap();
        let Command::Serve {
            threads,
            shards,
            tenants,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(threads, 4, "--workers must alias --threads");
        assert_eq!(shards, 2);
        assert_eq!(
            tenants,
            vec![
                ("legacy".to_string(), "c2050".to_string()),
                ("tiny".to_string(), "test-small".to_string()),
            ]
        );
        assert!(parse(&v(&["serve", "--tenant", "nopreset"])).is_err());
        assert!(parse(&v(&["serve", "--tenant", "=c2050"])).is_err());

        let Command::Predict { config, .. } = parse(&v(&[
            "predict", "spmv", "--config", "c2050", "--move", "d_vec=T",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(config.as_deref(), Some("c2050"));
    }

    #[test]
    fn two_t_notation() {
        let m = MoveSpec::parse("img=2T").unwrap();
        assert_eq!(m.space, MemorySpace::Texture2D);
    }

    #[test]
    fn dump_parses() {
        let cmd = parse(&v(&["dump", "vecadd", "--move", "a=T"])).unwrap();
        let Command::Dump { kernel, moves, .. } = cmd else {
            panic!()
        };
        assert_eq!(kernel, "vecadd");
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }
}

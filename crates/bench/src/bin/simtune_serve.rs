//! Tuning-as-a-service entry point: frames [`simtune_bench::serve`]
//! over stdin/stdout (default) or a unix socket.
//!
//! ```text
//! simtune_serve [--parallel N] [--cache PATH] [--socket PATH]
//! ```
//!
//! * `--parallel N` — worker threads in the shared pool (default: the
//!   service's own heuristic).
//! * `--cache PATH` — warm the shared [`simtune_core::SimCache`] from a
//!   snapshot at boot (a missing or corrupt snapshot degrades to a cold
//!   start) and write it back on clean shutdown.
//! * `--socket PATH` — listen on a unix domain socket instead of
//!   stdin/stdout; clients are served one at a time, each connection
//!   runs the framed loop until its `shutdown` request or EOF.
//!
//! In socket mode a client's `shutdown` ends that connection *and* the
//! process (after the cache write-back), so orchestration scripts can
//! tear the service down over the same protocol they tune with.

use simtune_bench::serve::{serve_loop, Server};
use simtune_core::{SimService, SnapshotLoad};
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    parallel: Option<usize>,
    cache: Option<PathBuf>,
    socket: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: simtune_serve [--parallel N] [--cache PATH] [--socket PATH]");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        parallel: None,
        cache: None,
        socket: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--parallel" => match value("--parallel").parse() {
                Ok(n) if n >= 1 => opts.parallel = Some(n),
                _ => {
                    eprintln!("--parallel needs an integer >= 1");
                    usage()
                }
            },
            "--cache" => opts.cache = Some(PathBuf::from(value("--cache"))),
            "--socket" => opts.socket = Some(PathBuf::from(value("--socket"))),
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    opts
}

fn build_service(opts: &Opts) -> SimService {
    let mut builder = SimService::builder();
    if let Some(n) = opts.parallel {
        builder = builder.n_parallel(n);
    }
    let service = builder.build();
    if let Some(path) = &opts.cache {
        match service.load_snapshot(path) {
            Ok(SnapshotLoad::Loaded(n)) => {
                eprintln!(
                    "simtune_serve: warmed cache with {n} entries from {}",
                    path.display()
                );
            }
            Ok(SnapshotLoad::Missing) => {
                eprintln!(
                    "simtune_serve: no snapshot at {}; cold start",
                    path.display()
                );
            }
            // load_snapshot already logged the rejection reason.
            Ok(SnapshotLoad::Rejected(_)) => {}
            Err(e) => {
                eprintln!("simtune_serve: snapshot read failed ({e}); cold start");
            }
        }
    }
    service
}

fn save_back(server: &Server, opts: &Opts) {
    if let Some(path) = &opts.cache {
        match server.service().save_snapshot(path) {
            Ok(n) => eprintln!(
                "simtune_serve: saved {n} cache entries to {}",
                path.display()
            ),
            Err(e) => eprintln!("simtune_serve: snapshot write failed: {e}"),
        }
    }
}

fn serve_stdio(server: &mut Server) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_loop(&mut stdin.lock(), &mut stdout.lock(), server).map(|_| ())
}

fn serve_socket(server: &mut Server, path: &PathBuf) -> io::Result<()> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would make bind fail.
    std::fs::remove_file(path).ok();
    let listener = UnixListener::bind(path)?;
    eprintln!("simtune_serve: listening on {}", path.display());
    let result = loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => break Err(e),
        };
        let mut reader = stream.try_clone()?;
        let mut writer = stream;
        match serve_loop(&mut reader, &mut writer, server) {
            // `true` means the peer sent `shutdown`: stop accepting.
            // Plain EOF (`false`) just ends this connection.
            Ok(true) => break Ok(()),
            Ok(false) => {}
            Err(e) => eprintln!("simtune_serve: connection error: {e}"),
        }
    };
    std::fs::remove_file(path).ok();
    result
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let mut server = Server::new(build_service(&opts));
    let result = match &opts.socket {
        Some(path) => serve_socket(&mut server, path),
        None => serve_stdio(&mut server),
    };
    save_back(&server, &opts);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simtune_serve: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The `multilog` command-line front-end (see `lib.rs` for the command
//! implementations).

use std::io::{BufRead, Write};
use std::process::ExitCode;

use multilog_cli::{
    analyze, check, lint, parse_args, prove, query, reduce, run, serve_io, Options, ReplSession,
    ServeSession, USAGE,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&args) {
        Ok((output, status)) => {
            print!("{output}");
            status
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Run one command: its output and exit status, or an error (exit 2).
/// Only `check` has a failing verdict of its own (exit 1).
fn dispatch(args: &[String]) -> Result<(String, ExitCode), String> {
    let (cmd, file, goal, opts) = parse_args(args)?;
    let source =
        std::fs::read_to_string(&file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    let output = match cmd.as_str() {
        "run" => run(&source, &opts),
        "query" => {
            let goal = goal.ok_or("query needs a goal argument")?;
            query(&source, &goal, &opts)
        }
        "prove" => {
            let goal = goal.ok_or("prove needs a goal argument")?;
            prove(&source, &goal, &opts)
        }
        "reduce" => reduce(&source, &opts),
        "check" => {
            let report = check(&source, &opts)?;
            let status = if report.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            };
            return Ok((report.text, status));
        }
        "lint" => lint(&source, &file, &opts),
        "analyze" => analyze(&source, &file, &opts),
        "repl" => repl(&source, &opts),
        "serve" => serve(&source, &opts),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }?;
    Ok((output, ExitCode::SUCCESS))
}

/// `multilog serve`: the multi-session belief server. Default transport
/// is stdin/stdout; with `--listen <addr>` every TCP connection gets its
/// own protocol session over one shared server (one thread each).
fn serve(source: &str, opts: &Options) -> Result<String, String> {
    let session = ServeSession::new(source, opts)?;
    let Some(addr) = opts.listen.as_deref() else {
        let stdin = std::io::stdin();
        let mut input = stdin.lock();
        let mut output = std::io::stdout();
        serve_io(session, opts, &mut input, &mut output)?;
        return Ok(String::new());
    };
    let server = std::sync::Arc::clone(session.server());
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
    eprintln!("multilog serve listening on {addr}");
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        let server = std::sync::Arc::clone(&server);
        let opts = opts.clone();
        std::thread::spawn(move || {
            let peer = stream
                .peer_addr()
                .map_or_else(|_| "<unknown>".to_owned(), |a| a.to_string());
            let mut output = match stream.try_clone() {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("connection {peer}: {e}");
                    return;
                }
            };
            let mut input = std::io::BufReader::new(stream);
            let session = ServeSession::with_server(server);
            if let Err(e) = serve_io(session, &opts, &mut input, &mut output) {
                eprintln!("connection {peer}: {e}");
            }
        });
    }
    Ok(String::new())
}

fn repl(source: &str, opts: &Options) -> Result<String, String> {
    let mut session = ReplSession::new(source, opts)?;
    eprintln!("{}", session.banner());
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        eprint!("{}> ", opts.user);
        let mut line = String::new();
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        let out = session.step(&line);
        stdout
            .write_all(out.as_bytes())
            .map_err(|e| e.to_string())?;
    }
    Ok(String::new())
}

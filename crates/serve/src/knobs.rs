//! Environment knobs for the serve layer, with fail-fast parsing.
//!
//! Same convention as `LOOKAHEAD_PROCS`/`LOOKAHEAD_JOBS` (PR 2): a
//! malformed knob is a hard error the driver turns into exit code 2,
//! never a silent fallback — a typo in `LOOKAHEAD_SERVE_ADDR` must not
//! quietly bind the wrong interface.

use std::net::SocketAddr;
use std::str::FromStr;

/// The address the server binds when neither `--addr` nor
/// `LOOKAHEAD_SERVE_ADDR` says otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7417";

/// Parses a `LOOKAHEAD_SERVE_ADDR` / `--addr` value: an explicit
/// `IP:PORT` socket address (IPv6 bracketed, e.g. `[::1]:7417`).
/// Port 0 is allowed — the OS picks a free port, which `--addr-file`
/// exposes to scripts.
///
/// # Errors
///
/// Returns a message naming the knob and the accepted shape.
pub fn parse_serve_addr(v: &str) -> Result<SocketAddr, String> {
    SocketAddr::from_str(v.trim()).map_err(|_| {
        format!(
            "LOOKAHEAD_SERVE_ADDR must be an IP:PORT socket address \
             (e.g. 127.0.0.1:7417 or [::1]:0), got {v:?}"
        )
    })
}

/// Parses a `LOOKAHEAD_SERVE_THREADS` / `--threads` value: a positive
/// worker-thread count.
///
/// # Errors
///
/// Returns a message naming the knob.
pub fn parse_serve_threads(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "LOOKAHEAD_SERVE_THREADS must be a positive integer (worker threads), got {v:?}"
        )),
    }
}

/// The bind address from `LOOKAHEAD_SERVE_ADDR`, or the default.
///
/// # Errors
///
/// Returns the parse error for a set-but-malformed value (fail fast:
/// the caller exits 2).
pub fn serve_addr_from_env() -> Result<SocketAddr, String> {
    match std::env::var("LOOKAHEAD_SERVE_ADDR") {
        Ok(v) => parse_serve_addr(&v),
        Err(_) => Ok(SocketAddr::from_str(DEFAULT_ADDR).expect("default address parses")),
    }
}

/// The worker-thread count from `LOOKAHEAD_SERVE_THREADS`, or `None`
/// when unset (the caller picks its own default).
///
/// # Errors
///
/// Returns the parse error for a set-but-malformed value.
pub fn serve_threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var("LOOKAHEAD_SERVE_THREADS") {
        Ok(v) => parse_serve_threads(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Parses a `--max-connections` value: the server's open-connection
/// cap (positive).
///
/// # Errors
///
/// Returns a message naming the knob.
pub fn parse_max_connections(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--max-connections must be a positive integer (open-connection cap), got {v:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_accepts_socket_addresses() {
        assert_eq!(
            parse_serve_addr("127.0.0.1:7417").unwrap().to_string(),
            "127.0.0.1:7417"
        );
        assert_eq!(
            parse_serve_addr(" 0.0.0.0:80 ").unwrap().to_string(),
            "0.0.0.0:80"
        );
        assert_eq!(parse_serve_addr("[::1]:0").unwrap().port(), 0);
        assert_eq!(parse_serve_addr("127.0.0.1:0").unwrap().port(), 0);
    }

    #[test]
    fn addr_rejects_everything_else_with_the_knob_named() {
        for bad in [
            "",
            "localhost:80", // hostnames need resolution; demand an IP
            "127.0.0.1",    // missing port
            ":8080",
            "127.0.0.1:notaport",
            "127.0.0.1:99999",
            "http://127.0.0.1:80",
        ] {
            let err = parse_serve_addr(bad).unwrap_err();
            assert!(err.contains("LOOKAHEAD_SERVE_ADDR"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn threads_accepts_positive_integers_only() {
        assert_eq!(parse_serve_threads("8"), Ok(8));
        assert_eq!(parse_serve_threads(" 1 "), Ok(1));
        for bad in ["0", "", "eight", "-2", "1.5"] {
            let err = parse_serve_threads(bad).unwrap_err();
            assert!(err.contains("LOOKAHEAD_SERVE_THREADS"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn default_addr_is_valid() {
        assert!(parse_serve_addr(DEFAULT_ADDR).is_ok());
    }

    #[test]
    fn max_connections_accepts_positive_integers_only() {
        assert_eq!(parse_max_connections("4096"), Ok(4096));
        for bad in ["0", "", "-1", "many"] {
            let err = parse_max_connections(bad).unwrap_err();
            assert!(err.contains("--max-connections"), "{bad:?}: {err}");
        }
    }
}

//! Parsers for the serve layer's knobs, with fail-fast errors.
//!
//! The binaries read the environment through one table
//! (`lookahead_bench::knobs`), which calls these parsers. A malformed
//! knob is a hard error the binary turns into exit code 2, never a
//! silent fallback: a typo in `LOOKAHEAD_SERVE_ADDR` must not quietly
//! bind the wrong interface.

use lookahead_harness::parallel::parse_positive;
use std::net::SocketAddr;
use std::str::FromStr;

/// The address the server binds when neither `--addr` nor
/// `LOOKAHEAD_SERVE_ADDR` says otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7417";

/// Parses an address given through `knob` (`--addr` or
/// `LOOKAHEAD_SERVE_ADDR`): an explicit `IP:PORT` socket address (IPv6
/// bracketed, e.g. `[::1]:7417`). Port 0 is allowed — the OS picks a
/// free port, which `--addr-file` exposes to scripts.
///
/// # Errors
///
/// Returns a message naming the knob and the accepted shape.
pub fn parse_serve_addr(knob: &str, v: &str) -> Result<SocketAddr, String> {
    SocketAddr::from_str(v.trim()).map_err(|_| {
        format!(
            "{knob} must be an IP:PORT socket address \
             (e.g. 127.0.0.1:7417 or [::1]:0), got {v:?}"
        )
    })
}

/// Parses a handler-thread count given through `knob` (`--threads` or
/// `LOOKAHEAD_SERVE_THREADS`): a positive integer.
///
/// # Errors
///
/// Returns a message naming the knob.
pub fn parse_serve_threads(knob: &str, v: &str) -> Result<usize, String> {
    parse_positive(knob, "worker threads", v)
}

/// Parses a `--max-connections` value: the server's open-connection
/// cap (positive).
///
/// # Errors
///
/// Returns a message naming the knob.
pub fn parse_max_connections(v: &str) -> Result<usize, String> {
    parse_positive("--max-connections", "open-connection cap", v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_accepts_socket_addresses() {
        let parse = |v| parse_serve_addr("--addr", v).unwrap();
        assert_eq!(parse("127.0.0.1:7417").to_string(), "127.0.0.1:7417");
        assert_eq!(parse(" 0.0.0.0:80 ").to_string(), "0.0.0.0:80");
        assert_eq!(parse("[::1]:0").port(), 0);
        assert_eq!(parse("127.0.0.1:0").port(), 0);
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
            for knob in ["LOOKAHEAD_SERVE_ADDR", "--addr"] {
                let err = parse_serve_addr(knob, bad).unwrap_err();
                assert!(err.starts_with(&format!("{knob} must")), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn threads_accepts_positive_integers_only() {
        assert_eq!(parse_serve_threads("--threads", "8"), Ok(8));
        assert_eq!(parse_serve_threads("--threads", " 1 "), Ok(1));
        for bad in ["0", "", "eight", "-2", "1.5"] {
            for knob in ["LOOKAHEAD_SERVE_THREADS", "--threads"] {
                let err = parse_serve_threads(knob, bad).unwrap_err();
                assert!(err.starts_with(&format!("{knob} must")), "{bad:?}: {err}");
            }
        }
    }

    #[test]
    fn default_addr_is_valid() {
        assert!(parse_serve_addr("--addr", DEFAULT_ADDR).is_ok());
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

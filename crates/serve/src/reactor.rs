//! A minimal epoll reactor core built on raw `syscall(2)` shims.
//!
//! The serve tier's zero-dependency rule forbids the `libc` crate, so
//! this module declares the variadic `syscall` symbol directly (the
//! same idiom `signal.rs` uses for `signal`/`_exit`) and issues
//! `epoll_create1`/`epoll_ctl`/`epoll_pwait`/`eventfd2` by number.
//! Everything std already wraps portably — nonblocking sockets,
//! `accept`, `read`, `write` — stays on `std::net`; only the readiness
//! machinery needs shims.
//!
//! Three types make up the surface:
//!
//! * [`Epoll`] — the readiness queue: register file descriptors with a
//!   `u64` token and an interest set, then [`Epoll::wait`] for events.
//!   Registrations are level-triggered: a socket with unread bytes (or
//!   writable space) keeps showing up until the state machine consumes
//!   it, which is the forgiving mode for a single-threaded reactor.
//! * [`Waker`] — an `eventfd` the handler workers write to when a
//!   response is ready, so a reactor parked in `wait` picks up
//!   completions immediately instead of at the next timeout tick.
//! * [`Event`] — one readiness notice, decoded into plain bools.
//!
//! The module is compiled for x86_64/aarch64 Linux; other targets get
//! stubs that report `Unsupported`, so `Server::bind` fails there
//! (`supported()` tells the caller which world it is in).

use std::io;
use std::time::Duration;

/// Whether the reactor transport can run on this build target.
pub fn supported() -> bool {
    imp::SUPPORTED
}

/// One decoded readiness event for the fd registered under `token`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    /// Readable — includes hangup/error so a `read` observes the EOF
    /// or failure instead of the connection idling forever.
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or socket error (`EPOLLHUP`/`EPOLLERR`/
    /// `EPOLLRDHUP`).
    pub hangup: bool,
}

/// The readiness queue. Wraps one `epoll` instance; closed on drop.
pub struct Epoll {
    fd: i32,
}

/// Cross-thread wakeup for a parked reactor (an `eventfd`). Cheap to
/// share behind `Arc`: `wake` is a single 8-byte write.
pub struct Waker {
    fd: i32,
}

pub use imp::raise_nofile_limit;

impl Epoll {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The raw syscall's errno, or `Unsupported` off Linux.
    pub fn new() -> io::Result<Epoll> {
        imp::epoll_create().map(|fd| Epoll { fd })
    }

    /// Registers `fd` under `token` with the given interest set.
    ///
    /// # Errors
    ///
    /// The raw syscall's errno (e.g. `EEXIST` on double-add).
    pub fn add(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        imp::epoll_ctl(self.fd, imp::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    /// Replaces the interest set for an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The raw syscall's errno (e.g. `ENOENT` when never added).
    pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        imp::epoll_ctl(self.fd, imp::EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    /// Deregisters `fd`. Closing the fd does this implicitly; explicit
    /// removal keeps the kernel's interest list tight.
    ///
    /// # Errors
    ///
    /// The raw syscall's errno.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        imp::epoll_ctl(self.fd, imp::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Waits for readiness, decoding up to `events`' capacity (set by
    /// the caller via `Vec::with_capacity`; at least 64 is sensible).
    /// `None` blocks indefinitely; `Some(d)` wakes after `d` even with
    /// nothing ready (the reactor's deadline tick). Returns the number
    /// of events appended to `events` (cleared first).
    ///
    /// # Errors
    ///
    /// The raw syscall's errno; `EINTR` is retried internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a 0.4ms deadline does not busy-spin.
                let ms = d.as_millis();
                if ms >= i32::MAX as u128 {
                    i32::MAX
                } else if d.is_zero() {
                    0
                } else {
                    (ms as i32).max(1)
                }
            }
        };
        imp::epoll_wait(self.fd, events, timeout_ms)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = imp::close(self.fd);
    }
}

impl Waker {
    /// Creates a nonblocking `eventfd`.
    ///
    /// # Errors
    ///
    /// The raw syscall's errno, or `Unsupported` off Linux.
    pub fn new() -> io::Result<Waker> {
        imp::eventfd().map(|fd| Waker { fd })
    }

    /// The fd to register with [`Epoll::add`] (readable interest).
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Signals the reactor. Saturation (`EAGAIN` on a full counter)
    /// means a wake is already pending, which is success.
    pub fn wake(&self) {
        let one: u64 = 1;
        let _ = imp::write(self.fd, &one.to_ne_bytes());
    }

    /// Consumes pending wakes so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = imp::read(self.fd, &mut buf);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        let _ = imp::close(self.fd);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::Event;
    use std::ffi::c_long;
    use std::io;

    pub const SUPPORTED: bool = true;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: c_long = 0o2000000;
    const EFD_CLOEXEC: c_long = 0o2000000;
    const EFD_NONBLOCK: c_long = 0o4000;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: i64 = 0;
        pub const WRITE: i64 = 1;
        pub const CLOSE: i64 = 3;
        pub const EPOLL_CTL: i64 = 233;
        pub const EPOLL_PWAIT: i64 = 281;
        pub const EVENTFD2: i64 = 290;
        pub const EPOLL_CREATE1: i64 = 291;
        pub const PRLIMIT64: i64 = 302;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: i64 = 63;
        pub const WRITE: i64 = 64;
        pub const CLOSE: i64 = 57;
        pub const EPOLL_CTL: i64 = 21;
        pub const EPOLL_PWAIT: i64 = 22;
        pub const EVENTFD2: i64 = 19;
        pub const EPOLL_CREATE1: i64 = 20;
        pub const PRLIMIT64: i64 = 261;
    }

    // The kernel packs epoll_event on x86_64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        /// The C library's variadic syscall entry point; arguments are
        /// register-sized, the return is `-1` + `errno` on failure.
        fn syscall(num: c_long, ...) -> c_long;
    }

    fn check(ret: c_long) -> io::Result<c_long> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes one integer flag argument.
        check(unsafe { syscall(nr::EPOLL_CREATE1 as c_long, EPOLL_CLOEXEC) }).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(
        epfd: i32,
        op: i32,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        // RDHUP rides with read interest only: a connection waiting on
        // its handler (no interest) must not get a level-triggered
        // half-close storm while the response is still being computed.
        let mut events = 0;
        if readable {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if writable {
            events |= EPOLLOUT;
        }
        let ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: the event struct outlives the call; EPOLL_CTL_DEL
        // ignores the pointer but passing a valid one is always fine.
        check(unsafe {
            syscall(
                nr::EPOLL_CTL as c_long,
                epfd as c_long,
                op as c_long,
                fd as c_long,
                &ev as *const EpollEvent,
            )
        })
        .map(|_| ())
    }

    pub fn epoll_wait(epfd: i32, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            // SAFETY: `raw` is a valid buffer of MAX_EVENTS entries;
            // a null sigmask makes epoll_pwait behave as epoll_wait
            // (the portable spelling: aarch64 has no epoll_wait).
            let ret = unsafe {
                syscall(
                    nr::EPOLL_PWAIT as c_long,
                    epfd as c_long,
                    raw.as_mut_ptr(),
                    MAX_EVENTS as c_long,
                    timeout_ms as c_long,
                    std::ptr::null::<u8>(),
                    8 as c_long,
                )
            };
            match check(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        out.clear();
        for ev in &raw[..n] {
            let bits = ev.events;
            let hangup = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0 || hangup,
                writable: bits & EPOLLOUT != 0,
                hangup,
            });
        }
        Ok(n)
    }

    pub fn eventfd() -> io::Result<i32> {
        // SAFETY: eventfd2 takes an initial count and a flag word.
        check(unsafe { syscall(nr::EVENTFD2 as c_long, 0, EFD_CLOEXEC | EFD_NONBLOCK) })
            .map(|fd| fd as i32)
    }

    pub fn read(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: buf is valid for writes of its length.
        check(unsafe {
            syscall(
                nr::READ as c_long,
                fd as c_long,
                buf.as_mut_ptr(),
                buf.len() as c_long,
            )
        })
        .map(|n| n as usize)
    }

    pub fn write(fd: i32, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: buf is valid for reads of its length.
        check(unsafe {
            syscall(
                nr::WRITE as c_long,
                fd as c_long,
                buf.as_ptr(),
                buf.len() as c_long,
            )
        })
        .map(|n| n as usize)
    }

    pub fn close(fd: i32) -> io::Result<()> {
        // SAFETY: the callers own fd and call close exactly once.
        check(unsafe { syscall(nr::CLOSE as c_long, fd as c_long) }).map(|_| ())
    }

    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }

    /// Raises the open-file soft limit toward `want` (capped at the
    /// hard limit) so thousands of sockets fit; returns the resulting
    /// soft limit. Loadgen calls this before opening its fleet.
    ///
    /// # Errors
    ///
    /// The raw `prlimit64` errno.
    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        const RLIMIT_NOFILE: c_long = 7;
        let mut old = Rlimit64 { cur: 0, max: 0 };
        // SAFETY: pid 0 = self; a null new-limit pointer reads only.
        check(unsafe {
            syscall(
                nr::PRLIMIT64 as c_long,
                0 as c_long,
                RLIMIT_NOFILE,
                std::ptr::null::<Rlimit64>(),
                &mut old as *mut Rlimit64,
            )
        })?;
        if old.cur >= want {
            return Ok(old.cur);
        }
        let new = Rlimit64 {
            cur: want.min(old.max),
            max: old.max,
        };
        // SAFETY: both pointers reference live structs on this stack.
        check(unsafe {
            syscall(
                nr::PRLIMIT64 as c_long,
                0 as c_long,
                RLIMIT_NOFILE,
                &new as *const Rlimit64,
                std::ptr::null_mut::<Rlimit64>(),
            )
        })?;
        Ok(new.cur)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::Event;
    use std::io;

    pub const SUPPORTED: bool = false;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the epoll reactor requires x86_64 or aarch64 Linux",
        ))
    }

    pub fn epoll_create() -> io::Result<i32> {
        unsupported()
    }
    pub fn epoll_ctl(_: i32, _: i32, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
        unsupported()
    }
    pub fn epoll_wait(_: i32, _: &mut Vec<Event>, _: i32) -> io::Result<usize> {
        unsupported()
    }
    pub fn eventfd() -> io::Result<i32> {
        unsupported()
    }
    pub fn read(_: i32, _: &mut [u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn write(_: i32, _: &[u8]) -> io::Result<usize> {
        unsupported()
    }
    pub fn close(_: i32) -> io::Result<()> {
        Ok(())
    }
    pub fn raise_nofile_limit(_: u64) -> io::Result<u64> {
        unsupported()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn waker_rouses_a_parked_wait() {
        let epoll = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        epoll.add(waker.fd(), 7, true, false).unwrap();

        let mut events = Vec::new();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0, "nothing ready before the wake");

        waker.wake();
        waker.wake(); // coalesces, still one event
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        waker.drain();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0, "drained waker quiesces");
    }

    #[test]
    fn sockets_report_accept_and_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), 1, true, false).unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!((n, events[0].token), (1, 1), "listener becomes readable");

        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        epoll.add(conn.as_raw_fd(), 2, true, false).unwrap();
        client.write_all(b"ping").unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!((n, events[0].token), (1, 2), "connection becomes readable");

        // Interest can be narrowed and restored.
        epoll.modify(conn.as_raw_fd(), 2, false, true).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1 && events[0].writable, "EPOLLOUT on an open socket");
        epoll.delete(conn.as_raw_fd()).unwrap();
    }

    #[test]
    fn wait_timeout_expires_without_events() {
        let epoll = Epoll::new().unwrap();
        let start = Instant::now();
        let mut events = Vec::new();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn nofile_limit_can_be_raised() {
        let got = raise_nofile_limit(1024).unwrap();
        assert!(got >= 1024);
    }
}

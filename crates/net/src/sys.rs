//! Minimal Linux `epoll` + pipe + socket FFI — the only unsafe surface
//! of the crate.
//!
//! The workspace builds offline (no crates.io, so no `libc` crate), and
//! `std` exposes no readiness API; this module declares the syscall
//! wrappers the event loops need (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `pipe2` — plus `read`/`write` for the wake pipe, and
//! `socket`/`setsockopt`/`bind`/`listen` for `SO_REUSEPORT` listeners)
//! directly against the C library, and wraps them in safe types:
//!
//! * [`Epoll`] — an epoll instance owning its fd, with `add`/`modify`/
//!   `delete`/`wait` returning `io::Result`. Level-triggered (the
//!   default): correctness never depends on draining a socket in one
//!   pass, the kernel re-reports unfinished fds on the next `wait`.
//! * [`WakePipe`] — the classic self-pipe: the read end sits in the
//!   epoll set, any thread can [`WakePipe::wake`] the loop out of an
//!   indefinite `wait` (e.g. for shutdown). Both ends are non-blocking;
//!   a full pipe already guarantees a pending wakeup, so `EAGAIN` on
//!   `wake` is success.
//! * [`reuseport_listener`] — a `TcpListener` bound with `SO_REUSEPORT`
//!   set *before* `bind` (std cannot do this), so every worker of a
//!   thread-per-core server can own its own listener on one port and
//!   let the kernel spread incoming connections across them.
//!
//! [`retry_eintr`] is the one EINTR policy for the whole crate: every
//! loop (accept, read, write or wait) retries interrupted
//! syscalls through it instead of hand-rolling the match per call site.
//!
//! Everything here is Linux-specific and gated accordingly; the rest of
//! the crate (protocol codec, blocking client) is portable.

#![cfg(target_os = "linux")]

use std::ffi::c_int;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Run `op` until it returns anything but `EINTR`.
///
/// Signals can interrupt any blocking syscall; none of the event-loop
/// code ever wants to observe that. The workers and the connection
/// pumps all share this helper so spurious-wakeup tolerance
/// is one policy, not N copies ([`Epoll::wait`] and [`WakePipe::drain`]
/// route through it too).
pub fn retry_eintr<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// Readable readiness (also reported on peer close).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to request it).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, no need to request it).
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// `O_CLOEXEC`: both our fds must not leak into spawned processes.
const EPOLL_CLOEXEC: c_int = 0o2000000;
const O_CLOEXEC: c_int = 0o2000000;
const O_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the one ABI
/// where the kernel expects the 12-byte layout); natural alignment
/// elsewhere.
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLL*`).
    pub events: u32,
    /// The caller's token, returned verbatim.
    pub data: u64,
}

/// `AF_INET` / `AF_INET6` (Linux generic values).
const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
/// Same numeric values as `O_NONBLOCK`/`O_CLOEXEC` on the ABIs this
/// crate supports (x86-64, aarch64, riscv64 — the generic Linux set).
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
#[cfg(test)]
const SO_RCVBUF: c_int = 8;
const SO_REUSEPORT: c_int = 15;
const LISTEN_BACKLOG: c_int = 1024;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const u8, len: u32) -> c_int;
    fn bind(fd: c_int, addr: *const u8, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A level-triggered epoll instance. The fd closes on drop.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create an epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; a valid return is a live fd we then own.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a freshly created fd owned by no one else.
        Ok(Self { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with an interest mask and a caller token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest mask of a registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove a registered fd (closing the fd also removes it; this is
    /// for deregistering without closing).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one registered fd is ready (or `timeout_ms`
    /// passes; `-1` = forever) and fill `events` with the ready set.
    /// `EINTR` retries internally — callers never see spurious wakeups
    /// from signals.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        retry_eintr(|| {
            // SAFETY: the buffer is valid for `events.len()` entries for
            // the duration of the call.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            cvt(n).map(|n| n as usize)
        })
    }
}

/// A non-blocking self-pipe for waking an epoll loop from other threads.
pub struct WakePipe {
    rd: OwnedFd,
    wr: OwnedFd,
}

impl WakePipe {
    /// Create the pipe (`O_NONBLOCK | O_CLOEXEC` on both ends).
    pub fn new() -> io::Result<Self> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a valid 2-slot buffer for pipe2 to fill.
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        // SAFETY: both fds were just created and are owned by no one else.
        unsafe { Ok(Self { rd: OwnedFd::from_raw_fd(fds[0]), wr: OwnedFd::from_raw_fd(fds[1]) }) }
    }

    /// The read end's fd, for epoll registration.
    pub fn read_fd(&self) -> RawFd {
        self.rd.as_raw_fd()
    }

    /// Make the next (or current) `epoll_wait` on the read end return.
    /// Infallible by design: `EAGAIN` means the pipe is full, i.e. a
    /// wakeup is already pending.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a live stack buffer to an owned fd.
        let _ = unsafe { write(self.wr.as_raw_fd(), &byte, 1) };
    }

    /// Consume all pending wakeup bytes (call from the loop when the
    /// read end reports readable). `EINTR` retries through
    /// [`retry_eintr`] like every other loop syscall, so a signal can
    /// never leave a stale wakeup byte behind to spin a level-triggered
    /// loop.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        let _ = retry_eintr(|| loop {
            // SAFETY: reads into a live stack buffer from an owned fd.
            let n = unsafe { read(self.rd.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
            if n < 0 {
                return Err(io::Error::last_os_error()); // EAGAIN = empty; EINTR retries
            }
            if n == 0 {
                return Ok(()); // write end closed — nothing left to drain
            }
        });
    }
}

/// Bind a non-blocking, `SO_REUSEPORT` TCP listener on `addr`.
///
/// `SO_REUSEPORT` must be set between `socket(2)` and `bind(2)`, which
/// `std::net::TcpListener::bind` cannot express — hence the raw path.
/// Every listener bound this way to the same address joins a kernel
/// accept group: incoming connections are distributed across the group
/// by flow hash, which is exactly the thread-per-core accept story (one
/// listener per worker, no shared accept lock, no handoff).
///
/// Pass port 0 on the first listener to let the OS pick; read the
/// assigned port back with `TcpListener::local_addr` and bind the
/// remaining workers to that concrete port.
pub fn reuseport_listener(addr: SocketAddr) -> io::Result<TcpListener> {
    // Encode the sockaddr by hand (no libc): family + port are common,
    // then the v4/v6-specific layout. All fields except the native-endian
    // family are big-endian per the sockaddr ABI.
    let mut sa = [0u8; 28];
    let (family, sa_len) = match addr {
        SocketAddr::V4(v4) => {
            // struct sockaddr_in: family u16, port u16be, addr u32be, 8B pad.
            sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            sa[2..4].copy_from_slice(&v4.port().to_be_bytes());
            sa[4..8].copy_from_slice(&v4.ip().octets());
            (AF_INET, 16u32)
        }
        SocketAddr::V6(v6) => {
            // struct sockaddr_in6: family u16, port u16be, flowinfo u32be,
            // addr [u8; 16], scope_id u32 (native).
            sa[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            sa[2..4].copy_from_slice(&v6.port().to_be_bytes());
            sa[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            sa[8..24].copy_from_slice(&v6.ip().octets());
            sa[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (AF_INET6, 28u32)
        }
    };
    // SAFETY: plain syscall; a valid return is a live fd we then own.
    let fd = cvt(unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` is a freshly created fd owned by no one else.
    let fd = unsafe { OwnedFd::from_raw_fd(fd) };
    let one: c_int = 1;
    for opt in [SO_REUSEADDR, SO_REUSEPORT] {
        // SAFETY: `one` is a live 4-byte value for the duration of the call.
        cvt(unsafe {
            setsockopt(
                fd.as_raw_fd(),
                SOL_SOCKET,
                opt,
                &one as *const c_int as *const u8,
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
    }
    // SAFETY: `sa` holds a valid sockaddr of `sa_len` bytes.
    cvt(unsafe { bind(fd.as_raw_fd(), sa.as_ptr(), sa_len) })?;
    // SAFETY: `fd` is an open, bound socket this function owns; `listen`
    // takes no pointers.
    cvt(unsafe { listen(fd.as_raw_fd(), LISTEN_BACKLOG) })?;
    Ok(TcpListener::from(fd))
}

/// Shrink (or grow) a socket's kernel receive buffer via `SO_RCVBUF`.
///
/// Used by tests that need a peer with a tiny receive window — the only
/// portable way to force the server's writes to park on `EPOLLOUT` with
/// bytes still pending. The kernel doubles the value internally and
/// clamps it to `rmem` limits; the exact effective size doesn't matter
/// to callers, only that it is small.
#[cfg(test)]
pub(crate) fn set_recv_buffer(fd: RawFd, bytes: c_int) -> io::Result<()> {
    // SAFETY: `bytes` is a live 4-byte value for the duration of the call.
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes as *const c_int as *const u8,
            std::mem::size_of::<c_int>() as u32,
        )
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_rouses_an_epoll_wait() {
        let epoll = Epoll::new().expect("epoll_create1");
        let pipe = WakePipe::new().expect("pipe2");
        epoll.add(pipe.read_fd(), EPOLLIN, 7).expect("epoll_ctl add");
        // Nothing pending: a zero timeout reports no events.
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
        // After a wake, the read end is ready and carries our token.
        pipe.wake();
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        // Drained, the loop goes quiet again; repeated wakes coalesce.
        pipe.drain();
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
        pipe.wake();
        pipe.wake();
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 1);
        pipe.drain();
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn modify_and_delete_change_the_interest_set() {
        let epoll = Epoll::new().expect("epoll_create1");
        let pipe = WakePipe::new().expect("pipe2");
        epoll.add(pipe.read_fd(), EPOLLIN, 1).expect("add");
        pipe.wake();
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 1);
        // Interest masked off: the pending byte no longer reports.
        epoll.modify(pipe.read_fd(), 0, 1).expect("modify");
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
        epoll.modify(pipe.read_fd(), EPOLLIN, 2).expect("modify");
        let n = epoll.wait(&mut events, 0).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 2, "token updates with modify");
        epoll.delete(pipe.read_fd()).expect("delete");
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn retry_eintr_retries_interrupts_and_passes_everything_else_through() {
        let mut calls = 0;
        let out = retry_eintr(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        let err = retry_eintr(|| io::Result::<()>::Err(io::ErrorKind::WouldBlock.into()));
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn reuseport_listeners_share_one_port_and_accept_every_connection() {
        use std::io::Write as _;
        use std::net::TcpStream;

        let first = reuseport_listener("127.0.0.1:0".parse().unwrap()).expect("first bind");
        let addr = first.local_addr().expect("local_addr");
        assert_ne!(addr.port(), 0, "port 0 resolves to a concrete port");
        let second = reuseport_listener(addr).expect("second bind on the same port");
        assert_eq!(second.local_addr().expect("local_addr").port(), addr.port());

        // The kernel spreads connections across the accept group by flow
        // hash — which listener gets which connection is not ours to
        // assert, but every connection must land on exactly one of them.
        const CONNS: usize = 8;
        let clients: Vec<TcpStream> = (0..CONNS)
            .map(|i| {
                let mut c = TcpStream::connect(addr).expect("connect");
                c.write_all(&[i as u8]).expect("write");
                c
            })
            .collect();
        let mut accepted = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while accepted < CONNS && std::time::Instant::now() < deadline {
            for listener in [&first, &second] {
                loop {
                    match listener.accept() {
                        Ok(_) => accepted += 1,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => panic!("accept failed: {e}"),
                    }
                }
            }
            std::thread::yield_now();
        }
        assert_eq!(accepted, CONNS, "every connection lands on one of the group's listeners");
        drop(clients);
    }

    #[test]
    fn reuseport_listener_is_nonblocking_from_birth() {
        let listener = reuseport_listener("127.0.0.1:0".parse().unwrap()).expect("bind");
        match listener.accept() {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            Ok(_) => panic!("accept on an idle nonblocking listener must not block or succeed"),
        }
    }
}

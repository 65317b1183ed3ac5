//! A simulated TCP network: listeners, client connections, request/response
//! buffers.
//!
//! The network is the channel through which *untrusted input* reaches the
//! service (Figure 2 of the paper: "External Input"). The workload generator
//! and the attack library both enqueue [`Connection`]s here; the server pulls
//! them off with `accept`/`recv` and answers with `send`.
//!
//! The fold of the listeners, connections and queues is memoised: every
//! method that changes them resets the memo, so a state digest re-folds the
//! network's buffers only after a step that used it.

use bytes::Bytes;
use nvariant_types::fnv::word_fold;
use nvariant_types::{ConnId, Errno, Fnv1a, Port};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// A pending or established client connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connection {
    /// Unique identifier of the connection.
    pub id: ConnId,
    /// The full client request payload (drained by `recv`).
    pub request: Vec<u8>,
    /// How many request bytes have been consumed so far.
    pub read_pos: usize,
    /// Everything the server has sent back so far.
    pub response: Vec<u8>,
    /// Whether the server has closed the connection.
    pub closed: bool,
}

impl Connection {
    /// Creates a connection carrying the given request payload.
    #[must_use]
    pub fn new(id: ConnId, request: Vec<u8>) -> Self {
        Connection {
            id,
            request,
            read_pos: 0,
            response: Vec::new(),
            closed: false,
        }
    }

    /// Returns the accumulated response bytes.
    #[must_use]
    pub fn response_bytes(&self) -> Bytes {
        Bytes::from(self.response.clone())
    }
}

/// A listening socket bound to a port.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Listener {
    /// Connections waiting to be accepted, in arrival order.
    pub backlog: VecDeque<ConnId>,
    /// Whether `listen` has been called.
    pub listening: bool,
}

/// The simulated network fabric shared by all processes in a world.
///
/// # Example
///
/// ```
/// use nvariant_simos::SimNetwork;
/// use nvariant_types::Port;
///
/// let mut net = SimNetwork::new();
/// net.bind(Port::HTTP).unwrap();
/// net.listen(Port::HTTP).unwrap();
/// let conn = net.enqueue_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec()).unwrap();
/// let accepted = net.accept(Port::HTTP).unwrap();
/// assert_eq!(accepted, conn);
/// let data = net.recv(conn, 1024).unwrap();
/// assert!(data.starts_with(b"GET /"));
/// net.send(conn, b"HTTP/1.0 200 OK\r\n").unwrap();
/// assert!(net.connection(conn).unwrap().response.starts_with(b"HTTP/1.0 200"));
/// ```
#[derive(Clone, Default)]
pub struct SimNetwork {
    /// Everything but the delivery cap; written only through
    /// [`SimNetwork::fabric_mut`].
    fabric: Fabric,
    /// The fold of `fabric`, once something has asked for it.
    digest: OnceLock<u64>,
    /// Deterministic schedule injection: when set, every `recv` delivers at
    /// most this many bytes even if the caller asked for more, modelling a
    /// network that fragments request payloads at a chosen boundary. The
    /// model checker enumerates different caps to explore the delivery
    /// schedules a real TCP stack could produce. It sets and clears the cap
    /// around every step, so the cap stays outside the memo.
    recv_cap: Option<usize>,
}

#[derive(Clone, Default)]
struct Fabric {
    listeners: BTreeMap<u16, Listener>,
    connections: BTreeMap<u64, Connection>,
    next_conn: u64,
    preloaded: BTreeMap<u16, VecDeque<Vec<u8>>>,
}

impl SimNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        SimNetwork::default()
    }

    /// The listeners, connections and queues for writing, with the memoised
    /// digest reset.
    fn fabric_mut(&mut self) -> &mut Fabric {
        self.digest = OnceLock::new();
        &mut self.fabric
    }

    /// Binds a listener to `port`.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Eaddrinuse`] if the port is already bound.
    /// (Privilege checks for low ports are performed by the kernel layer,
    /// which knows the caller's credentials.)
    pub fn bind(&mut self, port: Port) -> Result<(), Errno> {
        if self.fabric.listeners.contains_key(&port.as_u16()) {
            return Err(Errno::Eaddrinuse);
        }
        self.fabric_mut()
            .listeners
            .insert(port.as_u16(), Listener::default());
        Ok(())
    }

    /// Marks a bound port as listening.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if the port was never bound.
    pub fn listen(&mut self, port: Port) -> Result<(), Errno> {
        let fabric = self.fabric_mut();
        let listener = fabric
            .listeners
            .get_mut(&port.as_u16())
            .ok_or(Errno::Einval)?;
        listener.listening = true;
        // Clients that were waiting for the service to come up connect now.
        if let Some(waiting) = fabric.preloaded.remove(&port.as_u16()) {
            for request in waiting {
                let _ = self.enqueue_request(port, request);
            }
        }
        Ok(())
    }

    /// Registers a client request that will connect as soon as something
    /// starts listening on `port`.
    ///
    /// This is how workload generators and attack payloads are staged before
    /// the (synchronously executed) server program has had a chance to call
    /// `bind`/`listen`.
    pub fn preload_request(&mut self, port: Port, request: Vec<u8>) {
        self.fabric_mut()
            .preloaded
            .entry(port.as_u16())
            .or_default()
            .push_back(request);
        if self.is_listening(port) {
            let waiting = self
                .fabric_mut()
                .preloaded
                .remove(&port.as_u16())
                .unwrap_or_default();
            for request in waiting {
                let _ = self.enqueue_request(port, request);
            }
        }
    }

    /// Returns `true` if the port has a listening socket.
    #[must_use]
    pub fn is_listening(&self, port: Port) -> bool {
        self.fabric
            .listeners
            .get(&port.as_u16())
            .is_some_and(|l| l.listening)
    }

    /// Enqueues a client connection carrying `request` on `port`, returning
    /// its id.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Econnreset`] if nothing is listening on the port.
    pub fn enqueue_request(&mut self, port: Port, request: Vec<u8>) -> Result<ConnId, Errno> {
        if !self.is_listening(port) {
            return Err(Errno::Econnreset);
        }
        let fabric = self.fabric_mut();
        let id = ConnId::new(fabric.next_conn);
        fabric.next_conn += 1;
        fabric
            .connections
            .insert(id.as_u64(), Connection::new(id, request));
        fabric
            .listeners
            .get_mut(&port.as_u16())
            .expect("listener checked above")
            .backlog
            .push_back(id);
        Ok(id)
    }

    /// Accepts the next pending connection on `port`.
    ///
    /// # Errors
    ///
    /// * [`Errno::Einval`] if the port is not listening.
    /// * [`Errno::Eagain`] if the backlog is empty (the case-study server
    ///   uses this as its shutdown signal).
    pub fn accept(&mut self, port: Port) -> Result<ConnId, Errno> {
        let listener = self
            .fabric_mut()
            .listeners
            .get_mut(&port.as_u16())
            .ok_or(Errno::Einval)?;
        if !listener.listening {
            return Err(Errno::Einval);
        }
        listener.backlog.pop_front().ok_or(Errno::Eagain)
    }

    /// Reads up to `max` bytes of the request payload from a connection.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] if the connection does not exist or has been
    /// closed.
    pub fn recv(&mut self, conn: ConnId, max: usize) -> Result<Vec<u8>, Errno> {
        // A cap of 0 would starve the reader forever; deliver at least one
        // byte per call so capped schedules always make progress.
        let max = match self.recv_cap {
            Some(cap) => max.min(cap.max(1)),
            None => max,
        };
        let c = self.live_connection(conn)?;
        let start = c.read_pos.min(c.request.len());
        let end = (start + max).min(c.request.len());
        c.read_pos = end;
        Ok(c.request[start..end].to_vec())
    }

    /// Appends bytes to a connection's response buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] if the connection does not exist or has been
    /// closed.
    pub fn send(&mut self, conn: ConnId, data: &[u8]) -> Result<usize, Errno> {
        self.live_connection(conn)?.response.extend_from_slice(data);
        Ok(data.len())
    }

    /// An open connection, for writing: [`Errno::Ebadf`] if it does not
    /// exist or has been closed.
    fn live_connection(&mut self, conn: ConnId) -> Result<&mut Connection, Errno> {
        match self.fabric_mut().connections.get_mut(&conn.as_u64()) {
            Some(c) if !c.closed => Ok(c),
            _ => Err(Errno::Ebadf),
        }
    }

    /// Closes a connection (the response stays available for inspection).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Ebadf`] if the connection does not exist.
    pub fn close(&mut self, conn: ConnId) -> Result<(), Errno> {
        self.fabric_mut()
            .connections
            .get_mut(&conn.as_u64())
            .ok_or(Errno::Ebadf)?
            .closed = true;
        Ok(())
    }

    /// Looks up a connection by id.
    #[must_use]
    pub fn connection(&self, conn: ConnId) -> Option<&Connection> {
        self.fabric.connections.get(&conn.as_u64())
    }

    /// Iterates over all connections ever created, in creation order.
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.fabric.connections.values()
    }

    /// Number of connections still waiting in the backlog of `port`.
    #[must_use]
    pub fn backlog_len(&self, port: Port) -> usize {
        self.fabric
            .listeners
            .get(&port.as_u16())
            .map_or(0, |l| l.backlog.len())
    }

    /// Total number of response bytes produced across all connections.
    #[must_use]
    pub fn total_response_bytes(&self) -> usize {
        self.fabric
            .connections
            .values()
            .map(|c| c.response.len())
            .sum()
    }

    /// Caps (or, with `None`, uncaps) the number of bytes a single `recv`
    /// may deliver. A cap of 0 is treated as 1 so capped readers still make
    /// progress. See the `recv_cap` field documentation.
    pub fn set_recv_cap(&mut self, cap: Option<usize>) {
        self.recv_cap = cap;
    }

    /// The current per-`recv` delivery cap, if any.
    #[must_use]
    pub fn recv_cap(&self) -> Option<usize> {
        self.recv_cap
    }

    /// Folds the complete network state — listeners with their backlogs,
    /// every connection's buffers and cursors, the preloaded request queues
    /// and the delivery cap — into `digest`, in canonical `BTreeMap` order.
    /// All but the cap fold as one `u64`, computed once per write
    /// generation; the cap folds after it. Request and response bytes fold
    /// through the word fold ([`nvariant_types::fnv`]).
    pub fn digest_into(&self, digest: &mut Fnv1a) {
        let fabric = *self.digest.get_or_init(|| self.fabric.fold());
        digest.write_u64(fabric);
        match self.recv_cap {
            None => digest.write_u8(0),
            Some(cap) => {
                digest.write_u8(1);
                digest.write_usize(cap);
            }
        }
    }
}

impl Fabric {
    fn fold(&self) -> u64 {
        let mut digest = Fnv1a::new();
        digest.write_usize(self.listeners.len());
        for (port, listener) in &self.listeners {
            digest.write_u32(u32::from(*port));
            digest.write_u8(u8::from(listener.listening));
            digest.write_usize(listener.backlog.len());
            for conn in &listener.backlog {
                digest.write_u64(conn.as_u64());
            }
        }
        digest.write_usize(self.connections.len());
        for (id, conn) in &self.connections {
            digest.write_u64(*id);
            digest.write_u64(word_fold(&conn.request));
            digest.write_usize(conn.read_pos);
            digest.write_u64(word_fold(&conn.response));
            digest.write_u8(u8::from(conn.closed));
        }
        digest.write_u64(self.next_conn);
        digest.write_usize(self.preloaded.len());
        for (port, queue) in &self.preloaded {
            digest.write_u32(u32::from(*port));
            digest.write_usize(queue.len());
            for request in queue {
                digest.write_u64(word_fold(request));
            }
        }
        digest.finish()
    }
}

// Debug output sees only the network's state: the memo is a cache, and
// whether it has been filled yet is not part of the state.
impl fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNetwork")
            .field("listeners", &self.fabric.listeners)
            .field("connections", &self.fabric.connections)
            .field("next_conn", &self.fabric.next_conn)
            .field("preloaded", &self.fabric.preloaded)
            .field("recv_cap", &self.recv_cap)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_network() -> SimNetwork {
        let mut net = SimNetwork::new();
        net.bind(Port::HTTP).unwrap();
        net.listen(Port::HTTP).unwrap();
        net
    }

    #[test]
    fn bind_twice_fails() {
        let mut net = SimNetwork::new();
        net.bind(Port::HTTP).unwrap();
        assert_eq!(net.bind(Port::HTTP), Err(Errno::Eaddrinuse));
    }

    #[test]
    fn listen_requires_bind() {
        let mut net = SimNetwork::new();
        assert_eq!(net.listen(Port::new(8080)), Err(Errno::Einval));
        assert!(!net.is_listening(Port::new(8080)));
    }

    #[test]
    fn enqueue_requires_listener() {
        let mut net = SimNetwork::new();
        assert_eq!(
            net.enqueue_request(Port::HTTP, b"GET /".to_vec()),
            Err(Errno::Econnreset)
        );
    }

    #[test]
    fn accept_in_fifo_order_and_eagain_when_empty() {
        let mut net = ready_network();
        let a = net.enqueue_request(Port::HTTP, b"a".to_vec()).unwrap();
        let b = net.enqueue_request(Port::HTTP, b"b".to_vec()).unwrap();
        assert_eq!(net.backlog_len(Port::HTTP), 2);
        assert_eq!(net.accept(Port::HTTP), Ok(a));
        assert_eq!(net.accept(Port::HTTP), Ok(b));
        assert_eq!(net.accept(Port::HTTP), Err(Errno::Eagain));
    }

    #[test]
    fn recv_drains_request_incrementally() {
        let mut net = ready_network();
        let c = net
            .enqueue_request(Port::HTTP, b"hello world".to_vec())
            .unwrap();
        assert_eq!(net.recv(c, 5).unwrap(), b"hello");
        assert_eq!(net.recv(c, 100).unwrap(), b" world");
        assert_eq!(net.recv(c, 100).unwrap(), b"");
    }

    #[test]
    fn send_accumulates_response() {
        let mut net = ready_network();
        let c = net.enqueue_request(Port::HTTP, b"req".to_vec()).unwrap();
        net.send(c, b"part1 ").unwrap();
        net.send(c, b"part2").unwrap();
        assert_eq!(net.connection(c).unwrap().response, b"part1 part2");
        assert_eq!(net.total_response_bytes(), 11);
    }

    #[test]
    fn closed_connection_rejects_io() {
        let mut net = ready_network();
        let c = net.enqueue_request(Port::HTTP, b"req".to_vec()).unwrap();
        net.close(c).unwrap();
        assert_eq!(net.recv(c, 10), Err(Errno::Ebadf));
        assert_eq!(net.send(c, b"x"), Err(Errno::Ebadf));
        // Response remains inspectable after close.
        assert!(net.connection(c).is_some());
    }

    #[test]
    fn unknown_connection_is_ebadf() {
        let mut net = ready_network();
        assert_eq!(net.recv(ConnId::new(99), 1), Err(Errno::Ebadf));
        assert_eq!(net.send(ConnId::new(99), b"x"), Err(Errno::Ebadf));
        assert_eq!(net.close(ConnId::new(99)), Err(Errno::Ebadf));
    }

    #[test]
    fn preloaded_requests_connect_on_listen() {
        let mut net = SimNetwork::new();
        net.preload_request(Port::HTTP, b"GET /early HTTP/1.0\r\n\r\n".to_vec());
        net.preload_request(Port::HTTP, b"GET /second HTTP/1.0\r\n\r\n".to_vec());
        assert_eq!(net.backlog_len(Port::HTTP), 0);
        net.bind(Port::HTTP).unwrap();
        net.listen(Port::HTTP).unwrap();
        assert_eq!(net.backlog_len(Port::HTTP), 2);
        let first = net.accept(Port::HTTP).unwrap();
        assert!(net.recv(first, 64).unwrap().starts_with(b"GET /early"));
    }

    #[test]
    fn preloaded_requests_connect_immediately_if_already_listening() {
        let mut net = ready_network();
        net.preload_request(Port::HTTP, b"GET / HTTP/1.0\r\n\r\n".to_vec());
        assert_eq!(net.backlog_len(Port::HTTP), 1);
    }
}

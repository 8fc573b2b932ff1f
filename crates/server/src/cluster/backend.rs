//! Backend replica connections: a pool of protocol clients per replica,
//! plus the health flag failover decisions read.
//!
//! Each [`Replica`] owns a small stack of idle [`Client`] connections.
//! Connections are created lazily with a connect/read/write deadline, reused
//! on success, and dropped on any transport error (the next request opens a
//! fresh one), so a replica restart heals without explicit reconnect logic.
//! A router worker forwards one request per group at a time, so a replica
//! never has more requests in flight than the router has workers, and a
//! slow shard holds each of them for at most the backend deadline.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::client::Client;

/// One backend replica: its address, health, and connection pool.
#[derive(Debug)]
pub(crate) struct Replica {
    addr: SocketAddr,
    timeout: Duration,
    healthy: AtomicBool,
    idle: Mutex<Vec<Client>>,
}

impl Replica {
    /// A replica handle; no connection is opened until the first request.
    pub(crate) fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            healthy: AtomicBool::new(true),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Last known health, as set by request outcomes and the prober.
    pub(crate) fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Record a health observation; returns `true` if the value changed.
    pub(crate) fn set_healthy(&self, healthy: bool) -> bool {
        self.healthy.swap(healthy, Ordering::Relaxed) != healthy
    }

    /// Send one request line and read its reply.
    ///
    /// On success the connection returns to the idle pool; on any transport
    /// error it is dropped and the error surfaces to the failover logic.
    /// `QUIT`/`SHUTDOWN` lines must not pass through here — the router never
    /// forwards connection-lifecycle verbs.
    pub(crate) fn request(&self, line: &str) -> std::io::Result<String> {
        let pooled = self.idle.lock().expect("pool poisoned").pop();
        let mut client = match pooled {
            Some(client) => client,
            None => Client::connect_with_timeout(self.addr, self.timeout)?,
        };
        match client.request(line) {
            Ok(reply) => {
                self.idle.lock().expect("pool poisoned").push(client);
                Ok(reply)
            }
            Err(e) => Err(e), // drop the broken connection
        }
    }

    /// Probe liveness with `PING` on a fresh connection (the prober must
    /// not consume pooled connections a request could be using).
    pub(crate) fn probe(&self) -> bool {
        let Ok(mut client) = Client::connect_with_timeout(self.addr, self.timeout) else {
            return false;
        };
        matches!(client.request("PING").as_deref(), Ok("OK\tPONG"))
    }

    /// Drop every idle pooled connection (used on shard-map reload so stale
    /// sockets to retired backends do not linger).
    pub(crate) fn drain(&self) {
        self.idle.lock().expect("pool poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_replica_fails_fast_and_flags_health() {
        // Bind-then-drop yields an address nothing listens on.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let replica = Replica::new(addr, Duration::from_millis(200));
        assert!(replica.is_healthy(), "assumed healthy until proven dead");
        assert!(replica.request("PING").is_err());
        assert!(!replica.probe());
        assert!(replica.set_healthy(false), "transition noticed");
        assert!(!replica.set_healthy(false), "idempotent");
        assert!(!replica.is_healthy());
    }
}

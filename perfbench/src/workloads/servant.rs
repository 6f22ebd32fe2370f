//! The benchmark's own echo servant and, for the traced run, its
//! interceptors and per-caller stamp slots.
//!
//! Every two-way operation returns its last argument. The servant counts
//! what it served by operation: `bound` (bound or plain proxy), `balanced`
//! (balanced proxy) and `note` (oneway). The first argument is the
//! caller's index, the last the payload. In the traced run the index
//! names the caller's stamp slot: the client interceptor, server
//! interceptor and servant stamp that slot, so a caller can rebuild the
//! spans of its call after the reply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adapta_idl::Value;
use adapta_orb::{
    ClientAction, ClientInterceptor, ClientRequestInfo, OrbError, ServantFn, ServerAction,
    ServerInterceptor, ServerRequestInfo,
};

use crate::alloc::thread_allocs;
use crate::check::ServantCounts;

/// Two-way operation of bound and plain proxies.
pub const OP_BOUND: &str = "bound";
/// Two-way operation of the balanced proxy.
pub const OP_BALANCED: &str = "balanced";
/// Oneway operation.
pub const OP_NOTE: &str = "note";

/// One caller's stamps, in ns since the slots' epoch.
#[derive(Debug, Default)]
pub struct Slot {
    /// Client interceptor `send_request`.
    pub send: AtomicU64,
    /// Server interceptor `receive_request`.
    pub recv: AtomicU64,
    /// Servant entry.
    pub servant_in: AtomicU64,
    /// Servant exit.
    pub servant_out: AtomicU64,
    /// Client interceptor `receive_reply`.
    pub reply: AtomicU64,
    /// Calling thread's allocation count at `send_request`.
    pub send_allocs: AtomicU64,
    /// Calling thread's allocation count at `receive_reply`.
    pub reply_allocs: AtomicU64,
    /// Allocations inside the servant.
    pub servant_allocs: AtomicU64,
}

/// Stamp slots indexed by caller, with a common epoch.
#[derive(Debug)]
pub struct Slots {
    epoch: Instant,
    slots: Vec<Slot>,
}

impl Slots {
    /// `n` empty slots.
    pub fn new(n: usize) -> Arc<Slots> {
        Arc::new(Slots {
            epoch: Instant::now(),
            slots: (0..n).map(|_| Slot::default()).collect(),
        })
    }

    fn stamp(&self, field: impl Fn(&Slot) -> &AtomicU64, args: &[Value]) {
        if let Some(slot) = self.slot_of(args) {
            // Relaxed: the caller reads the stamps after the reply,
            // which the orb's own synchronisation orders after them.
            field(slot).store(self.now(), Ordering::Relaxed);
        }
    }

    fn slot_of(&self, args: &[Value]) -> Option<&Slot> {
        let ix = args.first()?.as_long()?;
        self.slots.get(usize::try_from(ix).ok()?)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant of a stamp.
    pub fn at(&self, ns: u64) -> Instant {
        self.epoch + std::time::Duration::from_nanos(ns)
    }

    /// Slot `i`.
    pub fn slot(&self, i: usize) -> &Slot {
        &self.slots[i]
    }
}

/// The client interceptor of the traced run.
pub struct ClientStamps(pub Arc<Slots>);

impl ClientInterceptor for ClientStamps {
    fn send_request(&self, info: &ClientRequestInfo<'_>) -> ClientAction {
        if let Some(slot) = self.0.slot_of(info.args) {
            slot.send_allocs.store(thread_allocs(), Ordering::Relaxed);
            slot.send.store(self.0.now(), Ordering::Relaxed);
        }
        ClientAction::Proceed
    }

    fn receive_reply(&self, info: &ClientRequestInfo<'_>, _outcome: &Result<Value, OrbError>) {
        if let Some(slot) = self.0.slot_of(info.args) {
            slot.reply.store(self.0.now(), Ordering::Relaxed);
            slot.reply_allocs.store(thread_allocs(), Ordering::Relaxed);
        }
    }
}

/// The server interceptor of the traced run.
pub struct ServerStamps(pub Arc<Slots>);

impl ServerInterceptor for ServerStamps {
    fn receive_request(&self, info: &ServerRequestInfo<'_>) -> ServerAction {
        if info.operation != OP_NOTE {
            self.0.stamp(|s| &s.recv, info.args);
        }
        ServerAction::Proceed
    }
}

/// Counters of one echo servant.
#[derive(Debug, Default)]
pub struct Counts {
    bound: AtomicU64,
    balanced: AtomicU64,
    oneway: AtomicU64,
}

impl Counts {
    /// A snapshot.
    pub fn get(&self) -> ServantCounts {
        ServantCounts {
            bound: self.bound.load(Ordering::SeqCst),
            balanced: self.balanced.load(Ordering::SeqCst),
            oneway: self.oneway.load(Ordering::SeqCst),
        }
    }
}

/// An echo servant for `interface` counting into `counts`; with
/// `slots`, it stamps entry, exit and its own allocations.
pub fn echo(interface: &str, counts: Arc<Counts>, slots: Option<Arc<Slots>>) -> ServantFn {
    let interface_name = interface.to_owned();
    ServantFn::new(interface, move |op, mut args| {
        let counter = match op {
            OP_BOUND => &counts.bound,
            OP_BALANCED => &counts.balanced,
            OP_NOTE => &counts.oneway,
            other => return Err(OrbError::unknown_operation(&interface_name, other)),
        };
        let traced = slots.as_ref().filter(|_| op != OP_NOTE);
        let allocs_in = thread_allocs();
        if let Some(s) = traced {
            s.stamp(|s| &s.servant_in, &args);
        }
        counter.fetch_add(1, Ordering::SeqCst);
        let reply = args.pop().unwrap_or(Value::Null);
        if let Some(slot) = traced.and_then(|s| s.slot_of(&args)) {
            slot.servant_allocs
                .store(thread_allocs() - allocs_in, Ordering::Relaxed);
        }
        if let Some(s) = traced {
            s.stamp(|s| &s.servant_out, &args);
        }
        Ok(reply)
    })
}

//! The real-clock localhost cluster runtime.
//!
//! [`RealCluster`] runs the *same* [`Node`] implementations the simulator
//! drives, but for real: one OS thread per replica, full-mesh length-prefixed
//! TCP over localhost ([`crate::wire`]), and a shared monotonic wall-clock
//! timer thread. No async runtime — plain `std::net` blocking sockets and
//! `std::thread`, which is entirely adequate for the single-machine cluster
//! sizes (n ≤ a few dozen) this repository deploys.
//!
//! Time: `ctx.now` is wall-clock microseconds since the cluster was launched
//! (the *cluster epoch*), delivered as the same [`SimTime`] type the
//! simulator uses. Protocol code computes only with offsets, so it runs
//! unmodified; telemetry spans stamped from `ctx.now` line up on one
//! wall-clock axis across all replicas of the process.
//!
//! Architecture per replica:
//!
//! ```text
//!  peer sockets ──reader threads──▶ mpsc ──▶ replica thread (owns the Node)
//!  timer thread ────────────────────┘            │
//!      ▲                                         ▼ drains Context actions
//!      └── SetTimer/CancelTimer          Send → blocking write to peer socket
//! ```
//!
//! The replica thread is the only one touching the node, so callbacks are
//! serialized exactly as in the simulator — no locks in protocol code, no
//! concurrent callbacks, the same single-threaded state-machine discipline.
//!
//! Frames go through reused buffers: the replica thread encodes every
//! outgoing frame into one buffer (a multicast once, for all recipients) and
//! each reader thread decodes through one body buffer of its own.

use crate::node::{Action, Context, Node, NodeId, Payload, TimerId};
use crate::time::SimTime;
use crate::wire::{encode_frame_into, read_frame_into, WireMsg};
use std::collections::{BinaryHeap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a replica's event loop wakes up for.
enum ReplicaEvent<M> {
    /// Run `on_start`.
    Start,
    /// A message arrived (from a peer socket or a zero-latency self-send).
    Deliver { from: NodeId, msg: M },
    /// A timer set by this replica came due.
    TimerFired { timer: TimerId, tag: u64 },
    /// Exit the event loop and hand the node back.
    Shutdown,
}

/// One pending wall-clock timer. Min-ordered by `(due, seq)` — `seq` keeps
/// same-instant timers FIFO like the simulator's tie-break.
struct TimerEntry {
    due: Instant,
    seq: u64,
    replica: NodeId,
    timer: TimerId,
    tag: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we pop earliest-due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct TimerInner<M> {
    heap: BinaryHeap<TimerEntry>,
    /// Live (not fired, not cancelled) timers, keyed `(replica, timer id)`.
    /// Cancellation removes the key; the heap entry is skipped when it pops.
    live: HashSet<(NodeId, u64)>,
    senders: Vec<Sender<ReplicaEvent<M>>>,
    seq: u64,
    shutdown: bool,
}

/// The shared wall-clock timer service: one thread sleeping until the
/// earliest deadline, firing timers back into the owning replica's queue.
struct TimerService<M> {
    inner: Mutex<TimerInner<M>>,
    cv: Condvar,
}

impl<M: Send + 'static> TimerService<M> {
    fn new(senders: Vec<Sender<ReplicaEvent<M>>>) -> Self {
        TimerService {
            inner: Mutex::new(TimerInner {
                heap: BinaryHeap::new(),
                live: HashSet::new(),
                senders,
                seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn set(&self, replica: NodeId, timer: TimerId, tag: u64, due: Instant) {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.seq;
        inner.seq += 1;
        inner.live.insert((replica, timer.0));
        // The timer thread sleeps until the head is due: only an entry that
        // becomes the head changes when it must wake. A view timeout armed a
        // second ahead leaves it asleep.
        let new_head = inner.heap.peek().is_none_or(|head| due < head.due);
        inner.heap.push(TimerEntry {
            due,
            seq,
            replica,
            timer,
            tag,
        });
        if new_head {
            self.cv.notify_one();
        }
    }

    fn cancel(&self, replica: NodeId, timer: TimerId) {
        let mut inner = self.inner.lock().unwrap();
        inner.live.remove(&(replica, timer.0));
        // The heap entry stays until due and is skipped then; no wakeup needed
        // (waking early for a cancelled head would only re-sleep).
    }

    fn stop(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }

    /// The timer thread body.
    fn run(&self) {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.shutdown {
                return;
            }
            let now = Instant::now();
            // Fire everything due.
            while let Some(head) = inner.heap.peek() {
                if head.due > now {
                    break;
                }
                let e = inner.heap.pop().expect("peeked entry pops");
                if inner.live.remove(&(e.replica, e.timer.0)) {
                    // A closed receiver means the replica already shut down;
                    // its timers are moot.
                    let _ = inner.senders[e.replica].send(ReplicaEvent::TimerFired {
                        timer: e.timer,
                        tag: e.tag,
                    });
                }
            }
            inner = match inner.heap.peek().map(|e| e.due) {
                Some(due) => {
                    let wait = due.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        continue;
                    }
                    self.cv.wait_timeout(inner, wait).unwrap().0
                }
                None => self.cv.wait(inner).unwrap(),
            };
        }
    }
}

/// Owns one replica: its node, its outgoing sockets, and its event queue.
struct ReplicaWorker<N: Node> {
    id: NodeId,
    n: usize,
    node: N,
    epoch: Instant,
    /// Persistent timer-id allocator state, threaded through each `Context`.
    next_timer: u64,
    /// Outgoing streams, indexed by peer id (`None` at `self.id`).
    peers: Vec<Option<BufWriter<TcpStream>>>,
    /// Every outgoing frame is encoded here, so a warm send allocates no
    /// frame of its own.
    frame: Vec<u8>,
    timers: Arc<TimerService<N::Msg>>,
    self_tx: Sender<ReplicaEvent<N::Msg>>,
    rx: Receiver<ReplicaEvent<N::Msg>>,
}

impl<N: Node> ReplicaWorker<N>
where
    N::Msg: WireMsg,
{
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Run the event loop to shutdown; returns the node for post-run inspection.
    fn run(mut self) -> N {
        // Reused across callbacks, and locals rather than worker fields: the
        // worker moves into the replica thread, and a buffer of `Arc`-shared
        // payloads could only move with it if `N::Msg: Sync`.
        let mut actions = Vec::new();
        let mut touched = Vec::new();
        loop {
            let event = match self.rx.recv() {
                Ok(ev) => ev,
                Err(_) => break, // cluster handle dropped without shutdown
            };
            let mut ctx = Context::new(self.id, self.now(), self.n, self.next_timer, actions);
            match event {
                ReplicaEvent::Start => self.node.on_start(&mut ctx),
                ReplicaEvent::Deliver { from, msg } => self.node.on_message(&mut ctx, from, msg),
                ReplicaEvent::TimerFired { timer, tag } => self.node.on_timer(&mut ctx, timer, tag),
                ReplicaEvent::Shutdown => break,
            }
            actions = self.apply(ctx, &mut touched);
        }
        self.node
    }

    /// Carry out the callback's actions and return the drained buffer.
    fn apply(&mut self, ctx: Context<N::Msg>, touched: &mut Vec<NodeId>) -> Vec<Action<N::Msg>> {
        // A multicast arrives as consecutive sends sharing one `Arc`: its
        // frame is encoded for the first recipient and reused for the rest.
        // `encoded` names the multicast whose frame `self.frame` holds.
        let mut encoded: Option<Arc<N::Msg>> = None;
        let (actions, next_timer) = ctx.finish(|action| match action {
            Action::Send { to, payload } => {
                if to >= self.n {
                    return;
                }
                if to == self.id {
                    // Zero-latency self-delivery, matching the simulator.
                    let _ = self.self_tx.send(ReplicaEvent::Deliver {
                        from: self.id,
                        msg: payload.into_msg(),
                    });
                } else if let Some(stream) = &mut self.peers[to] {
                    let frame = match &payload {
                        Payload::Shared(msg)
                            if encoded.as_ref().is_some_and(|e| Arc::ptr_eq(e, msg)) =>
                        {
                            Ok(())
                        }
                        Payload::Shared(msg) => {
                            let result = encode_frame_into(&mut self.frame, self.id, &**msg);
                            encoded = result.is_ok().then(|| msg.clone());
                            result
                        }
                        Payload::Owned(msg) => {
                            // Overwrites the multicast's frame.
                            encoded = None;
                            encode_frame_into(&mut self.frame, self.id, msg)
                        }
                    };
                    let written = frame.and_then(|()| stream.write_all(&self.frame));
                    // A failed write means the peer is gone (shutdown or
                    // crash); consensus tolerates the omission, so drop
                    // the message rather than poisoning the event loop.
                    if written.is_ok() && !touched.contains(&to) {
                        touched.push(to);
                    }
                }
            }
            Action::SetTimer { timer, delay, tag } => {
                let due = Instant::now() + std::time::Duration::from_micros(delay.as_micros());
                self.timers.set(self.id, timer, tag, due);
            }
            Action::CancelTimer { timer } => self.timers.cancel(self.id, timer),
        });
        self.next_timer = next_timer;
        // One flush per touched peer per callback, not per frame.
        for to in touched.drain(..) {
            if let Some(stream) = &mut self.peers[to] {
                let _ = stream.flush();
            }
        }
        actions
    }
}

/// An n-replica cluster running over real localhost sockets on wall-clock time.
///
/// Requires `N::Msg: WireMsg` — i.e. the message enum derives
/// `Serialize`/`Deserialize`. This is where the wire bound lives; the
/// [`Node`] trait itself stays unconstrained for simulation-only types.
pub struct RealCluster<N: Node> {
    txs: Vec<Sender<ReplicaEvent<N::Msg>>>,
    replicas: Vec<JoinHandle<N>>,
    readers: Vec<JoinHandle<()>>,
    timers: Arc<TimerService<N::Msg>>,
    timer_thread: Option<JoinHandle<()>>,
    epoch: Instant,
    addrs: Vec<SocketAddr>,
}

impl<N> RealCluster<N>
where
    N: Node + Send + 'static,
    N::Msg: WireMsg + Clone,
{
    /// Launch a cluster: bind one ephemeral listener per replica on
    /// 127.0.0.1, connect the full mesh, start the timer thread and one
    /// event-loop thread per replica, then deliver `on_start` to everyone.
    pub fn launch(nodes: Vec<N>) -> io::Result<RealCluster<N>> {
        let n = nodes.len();
        assert!(n > 0, "cannot launch an empty cluster");
        let epoch = Instant::now();

        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;

        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }

        // Full mesh: replica i's outgoing stream to every j ≠ i. The listen
        // backlog holds the connections until we accept them below.
        let mut outgoing: Vec<Vec<Option<BufWriter<TcpStream>>>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    row.push(None);
                } else {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    row.push(Some(BufWriter::new(stream)));
                }
            }
            outgoing.push(row);
        }

        // Accept the n-1 inbound streams per replica and spawn one reader
        // thread each. Frames carry the sender id, so accept order is
        // irrelevant and no handshake is needed.
        let mut readers = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
        for (j, listener) in listeners.into_iter().enumerate() {
            for _ in 0..n - 1 {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                let tx = txs[j].clone();
                readers.push(std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    let mut body = Vec::new();
                    // EOF or a closed receiver both mean the run is over.
                    while let Ok((from, msg)) = read_frame_into::<N::Msg, _>(&mut reader, &mut body)
                    {
                        if tx.send(ReplicaEvent::Deliver { from, msg }).is_err() {
                            break;
                        }
                    }
                }));
            }
        }

        let timers = Arc::new(TimerService::new(txs.clone()));
        let timer_thread = {
            let timers = timers.clone();
            std::thread::spawn(move || timers.run())
        };

        let mut replicas = Vec::with_capacity(n);
        for (id, (node, (rx, peers))) in nodes
            .into_iter()
            .zip(rxs.into_iter().zip(outgoing))
            .enumerate()
        {
            let worker = ReplicaWorker {
                id,
                n,
                node,
                epoch,
                next_timer: 0,
                peers,
                frame: Vec::new(),
                timers: timers.clone(),
                self_tx: txs[id].clone(),
                rx,
            };
            replicas.push(std::thread::spawn(move || worker.run()));
        }

        for tx in &txs {
            tx.send(ReplicaEvent::Start)
                .expect("replica event loop alive at start");
        }

        Ok(RealCluster {
            txs,
            replicas,
            readers,
            timers,
            timer_thread: Some(timer_thread),
            epoch,
            addrs,
        })
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True if the cluster has no replicas (never: launch asserts n > 0).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Wall-clock time since the cluster epoch, in the node API's time type.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The listen addresses, indexed by replica id (diagnostics).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stop every replica and hand the nodes back for post-run inspection
    /// (commit counts, stats structs — the same reads the sim harnesses do).
    pub fn shutdown(mut self) -> Vec<N> {
        for tx in &self.txs {
            let _ = tx.send(ReplicaEvent::Shutdown);
        }
        let nodes: Vec<N> = self
            .replicas
            .drain(..)
            .map(|h| h.join().expect("replica thread panicked"))
            .collect();
        self.timers.stop();
        if let Some(t) = self.timer_thread.take() {
            let _ = t.join();
        }
        // Replica threads dropped their outgoing streams on exit, so every
        // reader sees EOF and exits; txs die with `self`.
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Context, Node, NodeId, TimerId};
    use crate::time::Duration;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
    }

    /// Node 0 kicks off with a timer, then ping-pongs with node 1 up to
    /// `rounds`; both count what they see.
    struct PingNode {
        rounds: u32,
        pings_seen: u32,
        pongs_seen: u32,
        timer_fired: bool,
    }

    impl Node for PingNode {
        type Msg = PingMsg;

        fn on_start(&mut self, ctx: &mut Context<PingMsg>) {
            if ctx.id == 0 {
                ctx.set_timer(Duration::from_millis(2), 7);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<PingMsg>, from: NodeId, msg: PingMsg) {
            match msg {
                PingMsg::Ping(k) => {
                    self.pings_seen += 1;
                    ctx.send(from, PingMsg::Pong(k));
                }
                PingMsg::Pong(k) => {
                    self.pongs_seen += 1;
                    if k + 1 < self.rounds {
                        ctx.send(from, PingMsg::Ping(k + 1));
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<PingMsg>, _timer: TimerId, tag: u64) {
            assert_eq!(tag, 7);
            self.timer_fired = true;
            ctx.send(1, PingMsg::Ping(0));
        }
    }

    #[test]
    fn ping_pong_over_real_sockets_and_timers() {
        let mk = |rounds| PingNode {
            rounds,
            pings_seen: 0,
            pongs_seen: 0,
            timer_fired: false,
        };
        let cluster = RealCluster::launch(vec![mk(5), mk(5)]).unwrap();
        // Wall-clock budget: 2 ms timer + 10 localhost round trips.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let nodes = cluster.shutdown();
        assert!(nodes[0].timer_fired, "wall-clock timer must fire");
        assert_eq!(nodes[1].pings_seen, 5);
        assert_eq!(nodes[0].pongs_seen, 5);
    }

    /// A cancelled wall-clock timer must not fire; a kept one must.
    struct CancelNode {
        fired_tags: Vec<u64>,
    }

    impl Node for CancelNode {
        type Msg = PingMsg;

        fn on_start(&mut self, ctx: &mut Context<PingMsg>) {
            let decoy = ctx.set_timer(Duration::from_millis(5), 1);
            ctx.set_timer(Duration::from_millis(10), 2);
            ctx.cancel_timer(decoy);
        }

        fn on_message(&mut self, _ctx: &mut Context<PingMsg>, _from: NodeId, _msg: PingMsg) {}

        fn on_timer(&mut self, _ctx: &mut Context<PingMsg>, _timer: TimerId, tag: u64) {
            self.fired_tags.push(tag);
        }
    }

    #[test]
    fn cancelled_timer_does_not_fire_keeper_does() {
        let cluster = RealCluster::launch(vec![CancelNode { fired_tags: vec![] }]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let nodes = cluster.shutdown();
        assert_eq!(nodes[0].fired_tags, vec![2]);
    }

    /// Broadcast from one replica reaches every other over the mesh.
    struct FanoutNode {
        got: Vec<u32>,
    }

    impl Node for FanoutNode {
        type Msg = PingMsg;

        fn on_start(&mut self, ctx: &mut Context<PingMsg>) {
            if ctx.id == 0 {
                ctx.broadcast(PingMsg::Ping(42));
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<PingMsg>, _from: NodeId, msg: PingMsg) {
            if let PingMsg::Ping(v) = msg {
                self.got.push(v);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<PingMsg>, _t: TimerId, _tag: u64) {}
    }

    #[test]
    fn broadcast_reaches_all_peers() {
        let n = 4;
        let cluster =
            RealCluster::launch((0..n).map(|_| FanoutNode { got: vec![] }).collect()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let nodes = cluster.shutdown();
        assert!(nodes[0].got.is_empty(), "no self-delivery on broadcast");
        for node in &nodes[1..] {
            assert_eq!(node.got, vec![42]);
        }
    }

    /// The timer thread is woken only by a set that becomes the heap's head:
    /// a short timer set *after* a long one must still cut the sleep short.
    struct LongThenShortNode {
        fired_tags: Vec<u64>,
    }

    impl Node for LongThenShortNode {
        type Msg = PingMsg;

        fn on_start(&mut self, ctx: &mut Context<PingMsg>) {
            ctx.set_timer(Duration::from_secs(30), 1);
            ctx.set_timer(Duration::from_millis(5), 2);
        }

        fn on_message(&mut self, _ctx: &mut Context<PingMsg>, _from: NodeId, _msg: PingMsg) {}

        fn on_timer(&mut self, ctx: &mut Context<PingMsg>, _timer: TimerId, tag: u64) {
            self.fired_tags.push(tag);
            if tag == 2 {
                // Behind the 30 s head, then ahead of it again.
                ctx.set_timer(Duration::from_secs(60), 3);
                ctx.set_timer(Duration::from_millis(5), 4);
            }
        }
    }

    #[test]
    fn earlier_timer_set_behind_a_later_one_fires_on_time() {
        let cluster = RealCluster::launch(vec![LongThenShortNode { fired_tags: vec![] }]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let nodes = cluster.shutdown();
        assert_eq!(nodes[0].fired_tags, vec![2, 4]);
    }

    static SERIALIZED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// A message that counts how often it is serialised.
    #[derive(Debug, Clone)]
    struct CountedMsg(u32);

    impl Serialize for CountedMsg {
        fn to_value(&self) -> serde::Value {
            SERIALIZED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.0.to_value()
        }
    }

    impl Deserialize for CountedMsg {
        fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
            u32::from_value(v).map(CountedMsg)
        }
    }

    struct MulticastNode {
        got: Vec<u32>,
    }

    impl Node for MulticastNode {
        type Msg = CountedMsg;

        fn on_start(&mut self, ctx: &mut Context<CountedMsg>) {
            if ctx.id == 0 {
                ctx.multicast(&[1, 2, 3], CountedMsg(7));
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<CountedMsg>, _from: NodeId, msg: CountedMsg) {
            self.got.push(msg.0);
        }

        fn on_timer(&mut self, _ctx: &mut Context<CountedMsg>, _t: TimerId, _tag: u64) {}
    }

    #[test]
    fn multicast_is_serialised_once_for_all_recipients() {
        let cluster =
            RealCluster::launch((0..4).map(|_| MulticastNode { got: vec![] }).collect()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let nodes = cluster.shutdown();
        for node in &nodes[1..] {
            assert_eq!(node.got, vec![7], "every recipient got the frame");
        }
        assert_eq!(
            SERIALIZED.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "one encode for three recipients"
        );
    }
}

//! The discrete-event simulation executor.
//!
//! The executor is a single-threaded, deterministic async runtime whose notion
//! of "time" is the simulation clock rather than the wall clock. Simulated
//! processes that run in parallel (compute processors, I/O processors'
//! collectives, buffer threads, ...) are ordinary `async` functions; waiting
//! for simulated time to pass is `ctx.sleep(duration).await`, and waiting for
//! another process is done through the primitives in [`crate::sync`]. A
//! server whose work is known when a request reaches it, such as a drive,
//! needs no task: it sets its requester's wake-up with [`TaskRef::wake_at`].
//!
//! The design mirrors what the paper used Proteus for: an event-driven engine
//! that interleaves many logical threads and charges each action a configurable
//! amount of simulated time.
//!
//! # Runtime internals
//!
//! The hot path is built around three structures (see DESIGN.md §8):
//!
//! * **Slab task storage** — tasks live in a `Vec` of slots indexed by the low
//!   32 bits of their [`TaskId`]; the high 32 bits carry a per-slot generation
//!   so a recycled slot never confuses a stale wake-up with a live task.
//! * **One wake path** — primitives capture a [`TaskRef`] (task id plus a
//!   weak reference to the simulation state) and waking is a plain
//!   `VecDeque::push_back`, no locking or allocation; waking at a deadline
//!   is a timer in the calendar below, like a sleep's. `Future::poll` still
//!   needs a standard `Waker`, so every task is polled with one shared per
//!   [`Sim`]; waking it panics. The task being polled is a field of the
//!   simulation, which a sleep reads directly; a thread-local, set once per
//!   [`Sim::run`], only lets [`TaskRef::capture`] find that simulation.
//! * **One event calendar** — a monotone radix heap of `(deadline, TaskId)`
//!   entries holds every pending timer: 64 buckets keyed by the highest bit
//!   in which a deadline differs from the last deadline fired. A push is one
//!   append; a timer moves down at most 64 buckets in its life, so popping
//!   is amortized constant however many timers are pending. A front slot
//!   before the buckets holds a timer a push could tell is strictly the
//!   earliest, which then fires without touching a bucket, and a bucket of
//!   one entry is taken without a scan. Entries store a `TaskId`, not a
//!   boxed `Waker`, and every bucket keeps its capacity across
//!   [`Sim::reset`]. When one timer alone falls due, its task is polled
//!   straight away rather than through the ready queue, which is empty
//!   whenever the clock advances.
//!
//! # Determinism
//!
//! The run loop is deterministic: ready tasks run in FIFO order of wake-up,
//! and timers fire in `(deadline, registration)` order, which the calendar
//! keeps by construction rather than by a sequence number (see `Calendar`).
//! Two runs of the same simulation with the same seeds produce identical
//! event orders and identical final clocks. The test suite checks this
//! property.
//!
//! # Example
//!
//! ```
//! use ddio_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! let ctx = sim.context();
//! sim.spawn(async move {
//!     ctx.sleep(SimDuration::from_millis(5)).await;
//! });
//! let end = sim.run();
//! assert_eq!(end, ddio_sim::SimTime::ZERO + SimDuration::from_millis(5));
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task, unique within one [`Sim`].
///
/// Internally this packs a slab slot index (low 32 bits) and a slot
/// generation (high 32 bits), so ids from completed tasks are never confused
/// with the task currently occupying the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    fn pack(index: u32, gen: u32) -> TaskId {
        TaskId(((gen as u64) << 32) | index as u64)
    }

    fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

type BoxedTask = Pin<Box<dyn Future<Output = ()>>>;

thread_local! {
    /// The simulation running on this thread, set once per [`Sim::run`], so
    /// [`TaskRef::capture`] can find the task being polled (the core's
    /// `current`) and a handle to wake it through.
    static RUNNING: RefCell<Option<Weak<SimCore>>> = const { RefCell::new(None) };
}

/// The `Waker` every task of a simulation is polled with.
///
/// `Future::poll` requires one, but simulation tasks wake through
/// [`TaskRef`], so waking this waker is a bug and panics.
struct TaskRefOnly;

impl Wake for TaskRefOnly {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        panic!("simulation tasks wake through TaskRef, not through the std Waker");
    }
}

/// A lightweight handle that wakes the task being polled when it was
/// captured.
///
/// This is what the [`crate::sync`] primitives store in their waiter lists:
/// waking is a plain FIFO push onto the executor's ready queue, with no
/// reference counting or locking.
pub struct TaskRef {
    id: TaskId,
    state: Weak<SimCore>,
}

impl TaskRef {
    /// Captures a handle to the task currently being polled.
    ///
    /// # Panics
    ///
    /// Panics outside a simulation task: only the executor can wake a
    /// waiter.
    pub fn capture() -> TaskRef {
        RUNNING.with(|running| {
            let running = running.borrow();
            let polled = running.as_ref().and_then(|state| {
                let id = state.upgrade()?.current.get()?;
                Some(TaskRef {
                    id,
                    state: state.clone(),
                })
            });
            polled.expect(
                "sync primitives can only be polled from within a task spawned on the simulation",
            )
        })
    }

    /// Wakes the captured task, consuming the handle.
    ///
    /// Waking a task whose simulation has been dropped is a no-op; waking a
    /// task that has already completed is harmless (the stale wake-up is
    /// skipped by the executor).
    pub fn wake(self) {
        if let Some(core) = self.state.upgrade() {
            core.state.borrow_mut().ready.push_back(self.id);
        }
    }

    /// Wakes the captured task when the clock reaches `deadline`, consuming
    /// the handle: a timer set on the task's behalf, which fires in
    /// registration order with every other timer of that deadline, sleeps
    /// included. A deadline already reached wakes the task at once.
    ///
    /// A server with no task of its own, such as a drive, uses it to wake a
    /// waiting requester at the end of the service it worked out.
    pub fn wake_at(self, deadline: SimTime) {
        if let Some(core) = self.state.upgrade() {
            let mut st = core.state.borrow_mut();
            if deadline <= core.clock.get() {
                st.ready.push_back(self.id);
            } else {
                st.timers.push(deadline.as_nanos(), self.id);
            }
        }
    }
}

/// Marks a simulation as [`RUNNING`] for one [`Sim::run`] and restores the
/// previous one on drop, so a `run` nested inside a task, or one that
/// unwinds, leaves the marker as it found it.
struct RunningGuard {
    prev: Option<Weak<SimCore>>,
}

impl RunningGuard {
    fn enter(core: &SimCore) -> RunningGuard {
        RunningGuard {
            prev: RUNNING.with(|r| r.borrow_mut().replace(core.self_weak.clone())),
        }
    }
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        RUNNING.with(|r| *r.borrow_mut() = self.prev.take());
    }
}

/// A slab slot owning one task.
struct Slot {
    gen: u32,
    /// `None` while the slot is free or its task is checked out by the run
    /// loop.
    task: Option<BoxedTask>,
}

/// The shared heart of one simulation: the clock in a [`Cell`] so reading it
/// never takes the `RefCell` (contexts and guards call `now()` several times
/// per event), and everything else behind the `RefCell`.
struct SimCore {
    clock: Cell<SimTime>,
    /// How many times the simulation has been reset: a primitive that
    /// outlives [`Sim::reset`] compares it with the epoch it last saw to
    /// know that the clock restarted at zero.
    epoch: Cell<u64>,
    /// The task being polled, if any: what a sleep registers its timer for
    /// and what [`TaskRef::capture`] captures.
    current: Cell<Option<TaskId>>,
    state: RefCell<SimState>,
    /// A weak self-reference (set at construction), so [`TaskRef::capture`]
    /// can mint waiter handles from the [`RUNNING`] marker.
    self_weak: Weak<SimCore>,
}

/// The event calendar: a monotone radix heap of pending timers (Ahuja,
/// Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest path
/// problem", JACM 1990), which suits a clock that never goes backwards, with
/// one front slot before it.
///
/// A timer with deadline `d > last` sits in bucket `63 - (d ^ last)
/// .leading_zeros()`: the highest bit in which `d` differs from the last
/// deadline fired. Every entry of a higher bucket is later than every entry
/// of a lower one, so the earliest bucketed deadline is the minimum of the
/// lowest occupied bucket. [`Calendar::advance`] sets `last` to that minimum
/// and re-appends the bucket's entries in order: those equal to `last` land
/// in `due`, the rest in lower buckets, which were empty. A bucket of one
/// entry is simply taken.
///
/// The `front` slot holds a timer strictly earlier than every bucketed one,
/// when a push can tell that cheaply: nothing is in front and the deadline's
/// bucket is below every occupied bucket, or the deadline is earlier than
/// the front's (which then moves to its bucket). Such a timer fires next
/// without touching a bucket. A push equal to the front sends both to their
/// bucket, front first.
///
/// Timers fire in `(deadline, registration)` order with no sequence number:
///
/// * equal deadlines always sit in the same bucket, because a bucket's index
///   depends only on the deadline and `last`, and the front never shares its
///   deadline with another timer;
/// * advancing `last` to the minimum of the lowest occupied bucket leaves
///   every higher bucket's index unchanged (the new `last` agrees with the
///   old one on every bit above that bucket), so only the emptied bucket's
///   entries move;
/// * advancing `last` to the front's deadline `f` likewise leaves every
///   bucket above `f`'s own index unchanged, and every bucket below it is
///   empty (`f` is earlier than each bucketed timer), but a timer pushed
///   after the front into `f`'s bucket now differs from `f` at a lower bit:
///   that one stale bucket is re-appended, in order, into lower buckets;
/// * pushes and redistribution both append in order.
///
/// So two timers with one deadline keep their registration order from push
/// to `due`.
struct Calendar {
    /// The deadline fired last, in nanoseconds; equals the clock whenever
    /// tasks run.
    last: u64,
    /// The timers due at `last`, in registration order.
    due: Vec<TaskId>,
    /// A timer strictly earlier than every bucketed one, if a push found
    /// one.
    front: Option<(u64, TaskId)>,
    /// Bucket `b` holds the timers whose deadline first differs from `last`
    /// at bit `b`, in registration order per deadline.
    buckets: [Vec<(u64, TaskId)>; 64],
    /// Bit `b` is set while bucket `b` is non-empty.
    occupied: u64,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            last: 0,
            due: Vec::new(),
            front: None,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }

    /// The bucket of a timer at `deadline` when `last` fired last.
    fn bucket(deadline: u64, last: u64) -> usize {
        63 - (deadline ^ last).leading_zeros() as usize
    }

    /// Registers a timer firing `task` at `deadline`, which must be later
    /// than the last deadline fired.
    fn push(&mut self, deadline: u64, task: TaskId) {
        debug_assert!(deadline > self.last, "event calendar went backwards");
        match self.front {
            None => {
                let bucket = Self::bucket(deadline, self.last);
                if self.occupied & (2u64 << bucket).wrapping_sub(1) == 0 {
                    self.front = Some((deadline, task));
                } else {
                    self.append(deadline, task);
                }
            }
            Some((front, front_task)) if deadline <= front => {
                self.front = None;
                self.append(front, front_task);
                if deadline < front {
                    self.front = Some((deadline, task));
                } else {
                    self.append(deadline, task);
                }
            }
            Some(_) => self.append(deadline, task),
        }
    }

    /// Appends a timer to its bucket.
    fn append(&mut self, deadline: u64, task: TaskId) {
        let bucket = Self::bucket(deadline, self.last);
        self.buckets[bucket].push((deadline, task));
        self.occupied |= 1 << bucket;
    }

    /// Moves the next deadline's timers into `due`, which must be empty, and
    /// returns that deadline; `None` if no timer is pending.
    fn advance(&mut self) -> Option<u64> {
        debug_assert!(self.due.is_empty(), "advanced with timers still due");
        let (bucket, deadline) = match self.front.take() {
            Some((deadline, task)) => {
                self.due.push(task);
                let stale = Self::bucket(deadline, self.last);
                self.last = deadline;
                if self.occupied >> stale & 1 == 0 {
                    return Some(deadline);
                }
                (stale, deadline)
            }
            None if self.occupied == 0 => return None,
            None => {
                let lowest = self.occupied.trailing_zeros() as usize;
                let entries = &mut self.buckets[lowest];
                if let [(deadline, task)] = entries[..] {
                    entries.clear();
                    self.occupied &= !(1 << lowest);
                    self.last = deadline;
                    self.due.push(task);
                    return Some(deadline);
                }
                let min = entries.iter().map(|&(deadline, _)| deadline).min();
                (lowest, min.expect("an occupied bucket holds a timer"))
            }
        };
        // Re-append the bucket's entries relative to the new `last`: every
        // one lands in `due` or in a lower bucket.
        self.last = deadline;
        self.occupied &= !(1 << bucket);
        let (lower, rest) = self.buckets.split_at_mut(bucket);
        for &(deadline, task) in &rest[0] {
            if deadline == self.last {
                self.due.push(task);
            } else {
                let b = Self::bucket(deadline, self.last);
                lower[b].push((deadline, task));
                self.occupied |= 1 << b;
            }
        }
        rest[0].clear();
        Some(self.last)
    }

    /// Drops every timer and rewinds to time zero, keeping the allocations.
    fn reset(&mut self) {
        self.last = 0;
        self.due.clear();
        self.front = None;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
    }
}

/// Mutable simulation state shared between the executor and [`SimContext`]s.
struct SimState {
    /// Pending timers, in the order they must fire.
    timers: Calendar,
    /// Slab of task slots; `free` holds recyclable indices.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Number of spawned-but-not-completed tasks.
    live: usize,
    /// Tasks woken and awaiting their next poll, in FIFO order.
    ready: VecDeque<TaskId>,
    /// Number of events (timer firings + task polls) processed so far.
    events_processed: u64,
}

impl SimState {
    fn new() -> Self {
        SimState {
            timers: Calendar::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            ready: VecDeque::new(),
            events_processed: 0,
        }
    }

    /// Installs a task in a free slot and marks it runnable. The single
    /// entry point for both root and in-task spawns keeps wake ordering
    /// identical between them.
    fn spawn_boxed(&mut self, task: BoxedTask) -> TaskId {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "task slab exhausted");
                self.slots.push(Slot { gen: 0, task: None });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[index as usize];
        let id = TaskId::pack(index, slot.gen);
        slot.task = Some(task);
        self.live += 1;
        self.ready.push_back(id);
        id
    }

    /// Checks task `id` out of its slot for a poll, counting the poll as an
    /// event; `None` for a stale id (a finished generation, or a task
    /// already checked out), which counts nothing.
    fn check_out(&mut self, id: TaskId) -> Option<BoxedTask> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.gen != id.generation() {
            return None;
        }
        let task = slot.task.take()?;
        self.events_processed += 1;
        Some(task)
    }

    /// Frees the slot of a task that finished (or unwound), so its id goes
    /// stale and it no longer counts as live.
    fn free_slot(&mut self, index: usize) {
        let slot = &mut self.slots[index];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(index as u32);
        self.live -= 1;
    }
}

/// The discrete-event simulator: owns the clock, the event calendar, and all
/// spawned tasks.
pub struct Sim {
    core: Rc<SimCore>,
    /// The one `Waker` every task is polled with; waking it panics.
    waker: Waker,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        let core = Rc::new_cyclic(|self_weak| SimCore {
            clock: Cell::new(SimTime::ZERO),
            epoch: Cell::new(0),
            current: Cell::new(None),
            state: RefCell::new(SimState::new()),
            self_weak: self_weak.clone(),
        });
        Sim {
            core,
            waker: Waker::from(Arc::new(TaskRefOnly)),
        }
    }

    /// Returns the simulation to its initial state — time zero, no tasks, no
    /// timers, zeroed event counter — while keeping the slab, queue, and
    /// calendar allocations for reuse. Any still-pending tasks are dropped.
    ///
    /// This is what lets the experiment harness run many transfers on one
    /// `Sim` without paying allocation and teardown per transfer.
    pub fn reset(&mut self) {
        let doomed = self.take_tasks();
        // Run task destructors with the state unborrowed: they may wake other
        // tasks or drop sync primitives that call back into the state.
        drop(doomed);
        self.core.clock.set(SimTime::ZERO);
        self.core.epoch.set(self.core.epoch.get() + 1);
        let mut st = self.core.state.borrow_mut();
        let st = &mut *st;
        st.free.clear();
        for (index, slot) in st.slots.iter().enumerate().rev() {
            debug_assert!(slot.task.is_none(), "task survived reset");
            st.free.push(index as u32);
        }
        st.live = 0;
        st.ready.clear();
        st.events_processed = 0;
        st.timers.reset();
    }

    /// Takes every live task out of the slab, bumping slot generations so
    /// stale ids cannot reach future occupants. Dropping the returned tasks
    /// must happen with the state unborrowed.
    fn take_tasks(&mut self) -> Vec<Option<BoxedTask>> {
        let mut st = self.core.state.borrow_mut();
        st.slots
            .iter_mut()
            .map(|slot| {
                slot.gen = slot.gen.wrapping_add(1);
                slot.task.take()
            })
            .collect()
    }

    /// Returns a handle that tasks use to read the clock, sleep, and spawn
    /// further tasks. Handles are cheap to clone.
    pub fn context(&self) -> SimContext {
        SimContext {
            core: Rc::clone(&self.core),
        }
    }

    /// Spawns a root task onto the simulation.
    ///
    /// The task starts running when [`Sim::run`] is called. Returns the new
    /// task's id.
    pub fn spawn<F>(&mut self, future: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let task: BoxedTask = Box::pin(future);
        self.core.state.borrow_mut().spawn_boxed(task)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.clock.get()
    }

    /// Number of events (task polls and timer firings) processed so far.
    ///
    /// Useful for profiling the simulator itself.
    pub fn events_processed(&self) -> u64 {
        self.core.state.borrow().events_processed
    }

    /// Runs the simulation until no task can make further progress (all tasks
    /// finished or every remaining task is blocked with no pending timer).
    ///
    /// Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        let _running = RunningGuard::enter(&self.core);
        loop {
            // Pop the next runnable task and check it out of its slot under a
            // single borrow, in FIFO wake order.
            let next = {
                let mut st = self.core.state.borrow_mut();
                loop {
                    let Some(id) = st.ready.pop_front() else {
                        break None;
                    };
                    if let Some(task) = st.check_out(id) {
                        break Some((id, task));
                    }
                }
            };
            if let Some((id, task)) = next {
                self.poll_task(id, task);
                continue;
            }

            // Nothing runnable: advance the clock to the next timer.
            let mut st = self.core.state.borrow_mut();
            let Some(deadline) = st.timers.advance() else {
                break;
            };
            self.core.clock.set(SimTime::from_nanos(deadline));
            // Fire every timer with this deadline before polling, so
            // simultaneous events are handled in registration order. A lone
            // timer's task is polled at once: the ready queue is empty, so
            // queueing it would change nothing but the cost.
            st.events_processed += st.timers.due.len() as u64;
            if let [id] = st.timers.due[..] {
                st.timers.due.clear();
                let task = st.check_out(id);
                drop(st);
                if let Some(task) = task {
                    self.poll_task(id, task);
                }
            } else {
                let st = &mut *st;
                st.ready.extend(st.timers.due.drain(..));
            }
        }
        self.now()
    }

    /// Returns the number of tasks that have been spawned but not yet
    /// completed (including blocked tasks).
    pub fn live_tasks(&self) -> usize {
        self.core.state.borrow().live
    }

    /// Polls a task already checked out of its slot by the run loop.
    fn poll_task(&mut self, id: TaskId, mut task: BoxedTask) {
        /// Frees the slot of a task whose poll unwinds, so the task stops
        /// counting as live, and clears the current task; disarmed by
        /// `mem::forget` once the poll returns. The unwound task borrows
        /// nothing by the time this runs, but a drop must not panic, so a
        /// borrowed state is left alone.
        struct FreeOnUnwind<'a>(&'a SimCore, usize);
        impl Drop for FreeOnUnwind<'_> {
            fn drop(&mut self) {
                self.0.current.set(None);
                if let Ok(mut st) = self.0.state.try_borrow_mut() {
                    st.free_slot(self.1);
                }
            }
        }

        let index = id.index();
        let unwind = FreeOnUnwind(&self.core, index);
        self.core.current.set(Some(id));
        let poll = task.as_mut().poll(&mut Context::from_waker(&self.waker));
        self.core.current.set(None);
        std::mem::forget(unwind);
        {
            let mut st = self.core.state.borrow_mut();
            match poll {
                Poll::Pending => {
                    st.slots[index].task = Some(task);
                    return;
                }
                Poll::Ready(()) => st.free_slot(index),
            }
        }
        // Completed: drop the task body with the state unborrowed —
        // destructors may wake other tasks or spawn.
        drop(task);
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Tasks hold `SimContext`s, which hold the state that holds the
        // tasks; taking the tasks out breaks that cycle so the state is
        // actually freed once the last external context goes away.
        let doomed = self.take_tasks();
        drop(doomed);
    }
}

/// A cloneable handle to the running simulation, used from inside tasks.
#[derive(Clone)]
pub struct SimContext {
    core: Rc<SimCore>,
}

impl SimContext {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.clock.get()
    }

    /// Suspends the calling task for `duration` of simulated time.
    pub fn sleep(&self, duration: SimDuration) -> Sleep {
        self.sleep_until(self.now() + duration)
    }

    /// Suspends the calling task until the clock reaches `deadline`; a
    /// deadline already passed completes at once.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            ctx: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// How many times the simulation has been [reset](Sim::reset).
    pub(crate) fn epoch(&self) -> u64 {
        self.core.epoch.get()
    }

    /// Yields once, letting every other currently-runnable task run before
    /// this task continues (at the same simulated time).
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Spawns a new task. The task becomes runnable immediately (at the
    /// current simulated time) and runs concurrently with the caller; boxing
    /// the future is the only allocation. Returns the new task's id.
    ///
    /// A task that must be waited for signals a
    /// [`CountdownEvent`](crate::sync::CountdownEvent) as its last step.
    pub fn spawn<F>(&self, future: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        self.core.state.borrow_mut().spawn_boxed(Box::pin(future))
    }

    /// One poll step of a sleep: ready if `deadline` has passed, otherwise
    /// registers a timer waking the task currently being polled (once). A
    /// single method so the deadline check and the registration share one
    /// borrow of the state — sleeps are the hottest future in the simulator.
    ///
    /// # Panics
    ///
    /// Panics if registration is needed outside a simulation task: timers
    /// wake by task id, so there must be a current task to wake.
    pub(crate) fn poll_sleep(&self, deadline: SimTime, registered: &mut bool) -> Poll<()> {
        if self.core.clock.get() >= deadline {
            return Poll::Ready(());
        }
        if !*registered {
            *registered = true;
            debug_assert!(
                RUNNING.with(|r| r
                    .borrow()
                    .as_ref()
                    .map_or(true, |state| state.ptr_eq(&self.core.self_weak))),
                "sleep future polled by a task belonging to a different Sim"
            );
            let id = self.core.current.get().expect(
                "sleep futures can only be polled from within a task spawned on the simulation",
            );
            self.core
                .state
                .borrow_mut()
                .timers
                .push(deadline.as_nanos(), id);
        }
        Poll::Pending
    }
}

/// Future returned by [`SimContext::sleep`].
pub struct Sleep {
    ctx: SimContext,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        this.ctx.poll_sleep(this.deadline, &mut this.registered)
    }
}

/// Future returned by [`SimContext::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            TaskRef::capture().wake();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::CountdownEvent;
    use std::cell::Cell;

    #[test]
    fn empty_simulation_finishes_at_time_zero() {
        let mut sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn sleep_advances_the_clock() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(3)).await;
            ctx.sleep(SimDuration::from_millis(4)).await;
        });
        let end = sim.run();
        assert_eq!(end, SimTime::from_nanos(7_000_000));
    }

    #[test]
    fn zero_length_sleep_completes() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            ctx.sleep(SimDuration::ZERO).await;
            // A deadline already reached wakes the task at once.
            wake_at(ctx.now()).await;
            done2.set(true);
        });
        assert_eq!(sim.run(), SimTime::ZERO);
        assert!(done.get());
    }

    #[test]
    fn concurrent_sleeps_overlap() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        for _ in 0..10 {
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(10)).await;
            });
        }
        // Ten concurrent 10 ms sleeps take 10 ms, not 100 ms.
        assert_eq!(sim.run(), SimTime::from_nanos(10_000_000));
    }

    #[test]
    fn spawn_from_task_and_join() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let result = Rc::new(Cell::new(0u64));
        let result2 = Rc::clone(&result);
        sim.spawn(async move {
            let done = CountdownEvent::new(1);
            let (child_ctx, child_done) = (ctx.clone(), done.clone());
            let child_result = Rc::clone(&result2);
            ctx.spawn(async move {
                child_ctx.sleep(SimDuration::from_micros(5)).await;
                child_result.set(42);
                child_done.signal();
            });
            done.wait().await;
            // The parent resumes when its child signals, and not before.
            assert_eq!(result2.get(), 42);
            assert_eq!(ctx.now(), SimTime::ZERO + SimDuration::from_micros(5));
        });
        sim.run();
        assert_eq!(result.get(), 42);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn a_latch_waits_for_every_child() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let total = Rc::new(Cell::new(0u64));
        let total2 = Rc::clone(&total);
        sim.spawn(async move {
            let children = CountdownEvent::new(0);
            for i in 0..8u64 {
                children.add(1);
                let child_ctx = ctx.clone();
                let children = children.clone();
                let total = Rc::clone(&total2);
                ctx.spawn(async move {
                    child_ctx.sleep(SimDuration::from_micros(i)).await;
                    total.set(total.get() + i);
                    children.signal();
                });
            }
            children.wait().await;
            assert_eq!(total2.get(), 28, "every child finished first");
        });
        let end = sim.run();
        assert_eq!(total.get(), 28);
        assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(7));
    }

    #[test]
    fn a_latch_wakes_its_waiter_once_however_many_children_finish() {
        // Waiting on one latch costs the parent one poll to block and one to
        // resume, however many children count it down.
        let events = |children: u64| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            sim.spawn(async move {
                let done = CountdownEvent::new(children);
                for i in 0..children {
                    let child_ctx = ctx.clone();
                    let done = done.clone();
                    ctx.spawn(async move {
                        child_ctx.sleep(SimDuration::from_micros(i + 1)).await;
                        done.signal();
                    });
                }
                done.wait().await;
            });
            sim.run();
            sim.events_processed()
        };
        // Each extra child adds its own first poll, its timer and its resumed
        // poll: three events, and nothing for the parent.
        assert_eq!(events(5) - events(4), 3);
        assert_eq!(events(1), 2 + 3);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, delay_us) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(delay_us)).await;
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
    }

    /// Parks the task polling it until `deadline`, through
    /// [`TaskRef::wake_at`].
    fn wake_at(deadline: SimTime) -> impl Future<Output = ()> {
        let mut parked = false;
        std::future::poll_fn(move |_| {
            if std::mem::replace(&mut parked, true) {
                return Poll::Ready(());
            }
            TaskRef::capture().wake_at(deadline);
            Poll::Pending
        })
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        // Sleeps, and timers set through `wake_at` between them, share one
        // registration order.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u32 {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                match i % 2 {
                    0 => ctx.sleep(SimDuration::from_micros(7)).await,
                    _ => wake_at(SimTime::ZERO + SimDuration::from_micros(7)).await,
                }
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
        // Each task's two polls and its timer.
        assert_eq!(sim.events_processed(), 10 * 3);
    }

    #[test]
    fn yield_now_interleaves_tasks_at_the_same_time() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        for name in ["x", "y"] {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                for round in 0..3 {
                    order.borrow_mut().push(format!("{name}{round}"));
                    ctx.yield_now().await;
                }
            });
        }
        sim.run();
        let got = order.borrow().join(",");
        assert_eq!(got, "x0,y0,x1,y1,x2,y2");
    }

    #[test]
    fn deterministic_event_counts() {
        let run = || {
            let mut sim = Sim::new();
            let ctx = sim.context();
            for i in 0..50u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(i % 7)).await;
                    ctx.sleep(SimDuration::from_micros(i % 3)).await;
                });
            }
            sim.run();
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_reuses_a_sim_deterministically() {
        let workload = |sim: &mut Sim| {
            let ctx = sim.context();
            for i in 0..20u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(i % 5 + 1)).await;
                    ctx.yield_now().await;
                });
            }
            (sim.run(), sim.events_processed())
        };
        let mut fresh = Sim::new();
        let expected = workload(&mut fresh);
        let mut reused = Sim::new();
        for _ in 0..3 {
            assert_eq!(workload(&mut reused), expected);
            assert_eq!(reused.live_tasks(), 0);
            reused.reset();
            assert_eq!(reused.now(), SimTime::ZERO);
            assert_eq!(reused.events_processed(), 0);
        }
    }

    #[test]
    fn reset_drops_pending_tasks() {
        let mut sim = Sim::new();
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let marker = SetOnDrop(Rc::clone(&dropped));
        // The task blocks on a latch nobody signals, so `run` returns with
        // it still pending.
        let never = CountdownEvent::new(1);
        sim.spawn(async move {
            let _marker = marker;
            never.wait().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
        sim.reset();
        assert!(dropped.get(), "pending task dropped by reset");
        assert_eq!(sim.live_tasks(), 0);
        // The sim is fully reusable afterwards.
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(2)).await;
        });
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_millis(2));
    }

    #[test]
    fn reset_discards_timers_left_by_an_unwound_run() {
        let sleeper = |sim: &mut Sim| {
            let ctx = sim.context();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(2)).await;
            });
            (sim.run(), sim.events_processed())
        };
        let expected = sleeper(&mut Sim::new());
        assert_eq!(expected.0, SimTime::ZERO + SimDuration::from_millis(2));

        // A run that unwinds with a 10 ms timer still pending, the way a
        // harness that catches a panicking transfer leaves its `Sim`.
        let mut sim = Sim::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(10)).await;
        });
        unwind_a_task(&mut sim);
        assert_eq!(sim.now(), SimTime::ZERO);

        sim.reset();
        assert_eq!(sleeper(&mut sim), expected);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn a_task_that_panics_is_not_counted_live() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
        });
        unwind_a_task(&mut sim);
        assert_eq!(sim.live_tasks(), 1, "only the sleeper is still live");
        // The unwound task's slot is free again: the run carries on with the
        // sleeper alone.
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn timers_fire_in_order_across_wide_deadline_spreads() {
        // Deadlines from a few nanoseconds to 2^50 ns (about 13 days), with
        // deliberate same-deadline collisions; completion order must be
        // (deadline, registration) order.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut delays: Vec<u64> = Vec::new();
        for level in 0..10u32 {
            let base = 1u64 << (6 * level.min(9));
            delays.push(base + 3);
            delays.push(base + 3); // collision
            delays.push(base.saturating_mul(17) + 1);
        }
        delays.push(1 << 50);
        delays.push((1 << 50) + 1);
        let mut expected: Vec<(u64, usize)> = delays
            .iter()
            .copied()
            .enumerate()
            .map(|(i, d)| (d, i))
            .collect();
        expected.sort();
        for (i, d) in delays.iter().copied().enumerate() {
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(d)).await;
                order.borrow_mut().push((d, i));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), expected);
        assert_eq!(sim.live_tasks(), 0);
    }

    /// Checks that bit `b` of `occupied` is set exactly when bucket `b`
    /// holds a timer, and that the front is strictly earlier than every
    /// bucketed timer.
    fn assert_occupancy(cal: &Calendar) {
        for (b, bucket) in cal.buckets.iter().enumerate() {
            assert_eq!(cal.occupied >> b & 1 == 1, !bucket.is_empty(), "bucket {b}");
        }
        if let Some((front, _)) = cal.front {
            assert!(front > cal.last, "front {front} not after {}", cal.last);
            for &(deadline, _) in cal.buckets.iter().flatten() {
                assert!(front < deadline, "front {front} not before {deadline}");
            }
        }
    }

    /// The reference model of the calendar: a min-heap of `(deadline,
    /// registration seq, id)`.
    type Model = std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, TaskId)>>;

    /// How often a script took each of the calendar's paths, read from its
    /// state before each push and advance.
    #[derive(Debug, Default)]
    struct Paths {
        front_taken: usize,
        front_displaced: usize,
        equal_to_front: usize,
        stale_rebucketed: usize,
        single_entry: usize,
    }

    /// Pushes a timer at `deadline` onto the calendar and the model.
    fn push(
        cal: &mut Calendar,
        model: &mut Model,
        seq: &mut u64,
        paths: &mut Paths,
        deadline: u64,
    ) {
        if let Some((front, _)) = cal.front {
            paths.front_displaced += usize::from(deadline < front);
            paths.equal_to_front += usize::from(deadline == front);
        }
        cal.push(deadline, TaskId(*seq));
        model.push(std::cmp::Reverse((deadline, *seq, TaskId(*seq))));
        *seq += 1;
    }

    /// Takes the next due timer (the first `taken` of `due` are gone),
    /// advancing the calendar once `due` is used up, and checks it is the
    /// model's next timer. False once both are empty.
    fn fire(cal: &mut Calendar, model: &mut Model, taken: &mut usize, paths: &mut Paths) -> bool {
        if *taken == cal.due.len() {
            cal.due.clear();
            *taken = 0;
            match cal.front {
                Some((front, _)) => {
                    paths.front_taken += 1;
                    paths.stale_rebucketed +=
                        (cal.occupied >> Calendar::bucket(front, cal.last) & 1) as usize;
                }
                None if cal.occupied != 0 => {
                    let lowest = cal.occupied.trailing_zeros() as usize;
                    paths.single_entry += usize::from(cal.buckets[lowest].len() == 1);
                }
                None => {}
            }
            let Some(deadline) = cal.advance() else {
                assert!(model.is_empty(), "the calendar lost a timer");
                return false;
            };
            assert_eq!(deadline, cal.last);
        }
        let std::cmp::Reverse((deadline, _, id)) = model.pop().expect("a timer fired twice");
        assert_eq!((cal.last, cal.due[*taken]), (deadline, id));
        *taken += 1;
        true
    }

    #[test]
    fn calendar_fires_like_a_sequenced_heap() {
        // Random monotone scripts against the reference model, a min-heap of
        // (deadline, registration seq, id): many equal deadlines, deadlines
        // from 1 ns to 2^63, pushes interleaved with draining `due`, and
        // resets mid-script. Every seed takes each of the calendar's paths.
        use crate::rng::SimRng;

        for seed in 0..32 {
            let rng = SimRng::seed_from_u64(seed);
            let mut cal = Calendar::new();
            let mut model = Model::new();
            let mut paths = Paths::default();
            let (mut seq, mut taken, mut fired) = (0u64, 0usize, 0usize);
            for _ in 0..3_000 {
                match rng.gen_range(64) {
                    // Near deadlines, so many collide.
                    0..=23 => {
                        let deadline = cal.last + 1 + rng.gen_range(4);
                        push(&mut cal, &mut model, &mut seq, &mut paths, deadline);
                    }
                    // Far deadlines, up to 2^63 ns.
                    24..=35 if cal.last < 1 << 62 => {
                        let deadline = match rng.gen_range(8) {
                            0 => 1 << 63,
                            _ => cal.last + (1 << rng.gen_range(62)) + rng.gen_range(2),
                        };
                        push(&mut cal, &mut model, &mut seq, &mut paths, deadline);
                    }
                    36 => {
                        cal.reset();
                        model.clear();
                        taken = 0;
                        assert_eq!(cal.advance(), None);
                    }
                    _ => fired += usize::from(fire(&mut cal, &mut model, &mut taken, &mut paths)),
                }
                assert_occupancy(&cal);
            }
            while fire(&mut cal, &mut model, &mut taken, &mut paths) {
                fired += 1;
            }
            assert_occupancy(&cal);
            assert!(fired > 1_000, "seed {seed} fired only {fired} timers");
            let hits = [
                paths.front_taken,
                paths.front_displaced,
                paths.equal_to_front,
                paths.stale_rebucketed,
                paths.single_entry,
            ];
            assert!(
                hits.iter().all(|&n| n > 0),
                "seed {seed} missed a path: {paths:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wake through TaskRef")]
    fn std_waker_wakes_panic() {
        // A future that wakes itself through the standard `Waker` instead of
        // a `TaskRef` is a bug the executor reports rather than hides.
        struct WakeByStdWaker;
        impl Future for WakeByStdWaker {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let mut sim = Sim::new();
        sim.spawn(WakeByStdWaker);
        sim.run();
    }

    /// Polls `future` once outside any simulation task.
    fn poll_outside_a_task<F: Future>(future: F) -> Poll<F::Output> {
        struct Ignore;
        impl Wake for Ignore {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Ignore));
        std::pin::pin!(future).poll(&mut Context::from_waker(&waker))
    }

    #[test]
    #[should_panic(expected = "from within a task spawned on the simulation")]
    fn sync_wait_outside_a_sim_panics() {
        let latch = CountdownEvent::new(1);
        let _ = poll_outside_a_task(latch.wait());
    }

    /// Spawns a task that panics, runs `sim`, and checks that the run
    /// unwinds.
    fn unwind_a_task(sim: &mut Sim) {
        sim.spawn(async move {
            panic!("transfer failed");
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(unwound.is_err());
    }

    #[test]
    #[should_panic(
        expected = "sync primitives can only be polled from within a task spawned on the simulation"
    )]
    fn capture_after_an_unwound_task_panics() {
        unwind_a_task(&mut Sim::new());
        TaskRef::capture();
    }

    #[test]
    #[should_panic(
        expected = "sleep futures can only be polled from within a task spawned on the simulation"
    )]
    fn a_sleep_polled_after_an_unwound_task_panics() {
        // The unwound task is no longer the simulation's current task, so
        // the sleep finds no task to register its timer for.
        let mut sim = Sim::new();
        unwind_a_task(&mut sim);
        let _ = poll_outside_a_task(sim.context().sleep(SimDuration::from_millis(1)));
    }

    #[test]
    fn a_nested_run_leaves_the_outer_task_current() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let finished = Rc::new(Cell::new(false));
        let finished2 = Rc::clone(&finished);
        sim.spawn(async move {
            let mut inner = Sim::new();
            let inner_ctx = inner.context();
            inner.spawn(async move {
                inner_ctx.sleep(SimDuration::from_millis(1)).await;
            });
            assert_eq!(inner.run(), SimTime::ZERO + SimDuration::from_millis(1));
            // The outer task's sleep and yield still register for it.
            ctx.sleep(SimDuration::from_millis(2)).await;
            ctx.yield_now().await;
            finished2.set(true);
        });
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_millis(2));
        assert!(finished.get());
        // Its first poll, the timer, the poll that yields and the last one.
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn a_lone_due_timer_of_a_finished_task_is_skipped() {
        // The first task sets a timer for itself at 3 us and finishes; by
        // then its slot holds a task sleeping until 6 us, which the stale
        // timer must not poll.
        let mut sim = Sim::new();
        let ctx = sim.context();
        sim.spawn(std::future::poll_fn(|_| {
            TaskRef::capture().wake_at(SimTime::ZERO + SimDuration::from_micros(3));
            Poll::Ready(())
        }));
        let slot_reused = Rc::new(Cell::new(false));
        let slot_reused2 = Rc::clone(&slot_reused);
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_micros(1)).await;
            let sleeper_ctx = ctx.clone();
            let id = ctx.spawn(async move {
                sleeper_ctx.sleep(SimDuration::from_micros(5)).await;
            });
            slot_reused2.set(id.index() == 0);
        });
        assert_eq!(sim.run(), SimTime::ZERO + SimDuration::from_micros(6));
        assert!(slot_reused.get());
        // Five polls and three timers; the stale timer costs no poll.
        assert_eq!(sim.events_processed(), 5 + 3);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn task_ids_are_not_reused_while_live() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let ids = Rc::new(RefCell::new(Vec::new()));
        let ids2 = Rc::clone(&ids);
        sim.spawn(async move {
            for _ in 0..4 {
                ids2.borrow_mut().push(ctx.spawn(async move {}));
                // Let the child complete and free its slot for the next one.
                ctx.yield_now().await;
            }
        });
        sim.run();
        let ids = ids.borrow();
        // Slots recycle, but the generation tag keeps every id distinct.
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }
}

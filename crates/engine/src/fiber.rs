//! Stackful fibers: user-space cooperative contexts for the simulation
//! scheduler.
//!
//! The engine admits exactly one simulated processor at a time (see
//! [`crate::run`]), so running each processor on its own OS thread buys no
//! concurrency — it only buys a futex round-trip on every handoff. At
//! `schedule_quantum = 1` (the paper's configurations) the engine hands off
//! after nearly every access, and those round-trips dominate wall-clock
//! time. A fiber switch saves six callee-saved registers and a resume
//! address on one stack and pops them off another. Measured on a 2-vCPU
//! x86_64 host: two bare fibers ping-ponging cost about 41 ns per round
//! trip (two switches), against microseconds for a futex wake; a change of
//! runner in the engine (one schedule scan plus one switch) costs about
//! 40 ns.
//!
//! The switch resumes with `pop rax; jmp rax`, not `ret`. A `ret` would
//! return onto a different stack than its `call` came from, so the
//! return-stack predictor would miss on every switch; with `ret` the same
//! round trip cost about 70 ns.
//!
//! Fibers hand control straight to each other ([`switch_to`]); the thread
//! that drives a [`FiberSet`] gets control back from
//! [`FiberSet::resume`] only when a fiber finishes.
//!
//! Safety model: fibers never migrate between OS threads — a [`FiberSet`]
//! is created, driven, and dropped on one thread, and the only entry points
//! into fiber context are [`FiberSet::resume`] / [`switch_to`]. Panics
//! inside a fiber are caught at the fiber trampoline and re-thrown on the
//! scheduler's stack, so unwinding never crosses a context switch.
//!
//! The switch follows the System V x86_64 calling convention, so
//! [`supported`] holds only on x86_64 Unix targets; the runner falls back
//! to the OS-thread backend elsewhere.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;

/// Is the fiber backend available on this target?
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", unix))
}

/// Default fiber stack size. Workload closures are ordinary Rust code
/// (allocator, formatting machinery on panic paths, recursion in workload
/// builders), so this is deliberately generous; it is virtual memory, and
/// untouched pages cost nothing resident.
pub const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Saved execution context: just the stack pointer. Everything else lives
/// on the fiber's stack, pushed and popped by the switch primitive.
#[derive(Default)]
#[repr(C)]
struct Context {
    sp: u64,
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::Context;

    /// Switch from the context `from` to the context `to`.
    ///
    /// System V x86_64: push a resume address and the callee-saved
    /// registers onto the current stack, publish the stack pointer through
    /// `from`, adopt `to`'s stack pointer, pop its registers and its
    /// resume address, and `jmp` there. Every caller-saved register is
    /// declared clobbered so the compiler spills anything live across the
    /// switch; `rdi`/`rsi` come back holding the other context's values,
    /// so they are declared clobbered too.
    ///
    /// # Safety
    /// `from` must be writable; `to` must hold a stack pointer previously
    /// produced by this function or by `init_stack`, on a live stack.
    #[inline(never)]
    pub(super) unsafe extern "C" fn switch(from: *mut Context, to: *const Context) {
        core::arch::asm!(
            "lea rax, [rip + 2f]",
            "push rax",
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "pop rax",
            "jmp rax",
            "2:",
            inout("rdi") from => _,
            inout("rsi") to => _,
            lateout("rax") _, lateout("rcx") _, lateout("rdx") _,
            lateout("r8") _, lateout("r9") _, lateout("r10") _, lateout("r11") _,
            out("xmm0") _, out("xmm1") _, out("xmm2") _, out("xmm3") _,
            out("xmm4") _, out("xmm5") _, out("xmm6") _, out("xmm7") _,
            out("xmm8") _, out("xmm9") _, out("xmm10") _, out("xmm11") _,
            out("xmm12") _, out("xmm13") _, out("xmm14") _, out("xmm15") _,
            clobber_abi("C"),
        );
    }

    /// Prepare a fresh stack so the first `switch` into it lands in
    /// `entry`. Returns the initial stack pointer.
    ///
    /// Layout (top down): 16-byte alignment padding, then the frame
    /// `switch` pops — six zeroed callee-saved slots under the entry
    /// address. After `switch` pops them and the entry address and jumps
    /// into `entry`, `rsp % 16 == 8`, exactly the System V state at a
    /// function entry.
    ///
    /// # Safety
    /// `stack` must outlive every switch into the returned context.
    pub(super) unsafe fn init_stack(stack: &mut [u8], entry: extern "C" fn() -> !) -> u64 {
        let top = stack.as_mut_ptr().add(stack.len());
        let mut p = ((top as u64) & !15) as *mut u64;
        // One padding slot so the entry address sits at `16k+8`: after the
        // six register pops and the entry-address pop, `rsp % 16 == 8` —
        // the System V state at a function entry (as if reached by
        // `call`). Without it, aligned SSE spills in the entry fault.
        p = p.sub(1);
        *p = 0;
        p = p.sub(1);
        *p = entry as usize as u64;
        for _ in 0..6 {
            p = p.sub(1);
            *p = 0;
        }
        p as u64
    }
}

thread_local! {
    /// The fiber set running on this thread (null in scheduler context). A
    /// raw pointer is sound here because fibers only run while their
    /// `FiberSet` is borrowed mutably by `resume`, which pins it. `resume`
    /// saves and restores the previous value, so a set driven from inside
    /// another set's fiber (a nested simulation) hands it back intact.
    static CURRENT: Cell<*mut FiberSet> = const { Cell::new(std::ptr::null_mut()) };
}

struct FiberSlot {
    ctx: Context,
    /// Owned stack memory; boxed slice so it never moves.
    #[allow(dead_code)]
    stack: Box<[u8]>,
    /// Entry closure, consumed by the trampoline on first switch in.
    entry: Option<Box<dyn FnOnce()>>,
    /// Panic payload captured at the trampoline, if the fiber panicked.
    panic: Option<Box<dyn std::any::Any + Send>>,
    finished: bool,
}

/// First frame of every fiber: run the entry closure under `catch_unwind`,
/// record the outcome, and switch back to the scheduler forever.
extern "C" fn trampoline() -> ! {
    let set = CURRENT.with(|c| c.get());
    // Safety: whoever switched here (`resume` or `switch_to`) made this
    // fiber the set's `current` on a live, pinned set, and nothing else on
    // this thread touches the set until this fiber switches away.
    unsafe {
        let slot: *mut FiberSlot = &mut *(&mut (*set).slots)[(*set).current];
        let entry = (*slot)
            .entry
            .take()
            // ccsim-lint: allow(unwrap): the trampoline runs exactly once per fiber
            .expect("fiber resumed after completion");
        let result = std::panic::catch_unwind(AssertUnwindSafe(entry));
        if let Err(payload) = result {
            (*slot).panic = Some(payload);
        }
        (*slot).finished = true;
        // This fiber is still the set's `current` (a nested simulation
        // inside `entry` has restored everything it changed), so `resume`
        // reports it. A finished fiber parks here; nothing ever switches to
        // a fiber marked finished, so each switch is terminal in practice.
        // ccsim-lint: allow(unbounded-retry): every iteration switches straight back to the scheduler
        loop {
            imp::switch(&mut (*slot).ctx, &*(*set).sched);
        }
    }
}

/// Suspend the running fiber and run fiber `n` of the same set, from
/// where it last switched away (or from its entry, if it never ran). This
/// returns when some fiber, or `resume`, switches back to the caller.
pub(crate) fn switch_to(n: usize) {
    let set = CURRENT.with(|c| c.get());
    assert!(!set.is_null(), "switch_to called outside fiber context");
    // Safety: same pinning argument as `trampoline`.
    unsafe {
        let me = (*set).current;
        if me == n {
            return;
        }
        let slots = &mut (*set).slots;
        let to = slots
            .get(n)
            .filter(|s| !s.finished)
            .map(|s| &s.ctx as *const Context);
        assert!(to.is_some(), "switched to a finished or unknown fiber");
        if let (Some(to), Some(from)) = (to, slots.get_mut(me)) {
            (*set).current = n;
            imp::switch(&mut from.ctx, to);
        }
    }
}

/// A set of cooperatively scheduled fibers, all pinned to the thread that
/// created them. Fibers hand control to each other with [`switch_to`];
/// the thread that called [`FiberSet::resume`] gets control back only when
/// a fiber finishes.
pub(crate) struct FiberSet {
    // The Box is load-bearing, not an accident: raw pointers into a slot
    // (the saved contexts) must survive `spawn` reallocating the Vec, so
    // every slot needs its own stable heap address.
    #[allow(clippy::vec_box)]
    slots: Vec<Box<FiberSlot>>,
    /// The context `resume` suspends in, shared by every slot: a fiber
    /// that finishes switches back to it. Boxed like the slots, so the
    /// address fibers switch back through does not depend on where the
    /// set itself lives.
    sched: Box<Context>,
    /// The fiber running now; inside `resume` it always names one.
    current: usize,
}

impl FiberSet {
    pub(crate) fn new() -> Self {
        assert!(supported(), "fiber backend not available on this target");
        FiberSet {
            slots: Vec::new(),
            sched: Box::default(),
            current: 0,
        }
    }

    /// Add a fiber that will run `entry` when first switched to.
    pub(crate) fn spawn(&mut self, stack_bytes: usize, entry: Box<dyn FnOnce()>) {
        let mut stack = vec![0u8; stack_bytes.max(16 * 1024)].into_boxed_slice();
        // Safety: the boxed stack lives in the slot alongside the context
        // and is never reallocated.
        let sp = unsafe { imp::init_stack(&mut stack, trampoline) };
        self.slots.push(Box::new(FiberSlot {
            ctx: Context { sp },
            stack,
            entry: Some(entry),
            panic: None,
            finished: false,
        }));
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Run fiber `i`, and whichever fibers it switches to, until one of
    /// them finishes. Returns the index of the fiber that finished; it
    /// never runs again, and any panic payload is held for
    /// [`FiberSet::take_panic`].
    pub(crate) fn resume(&mut self, i: usize) -> usize {
        assert!(!self.slots[i].finished, "resumed a finished fiber");
        self.current = i;
        let set: *mut FiberSet = self;
        let prev = CURRENT.with(|c| c.replace(set));
        // Safety: the set is borrowed mutably for the whole run (so it
        // cannot move), its slots and scheduler context are boxed, and the
        // fibers run on this same OS thread and switch back to `sched`
        // before `resume` continues. Fibers reach the set only through
        // `set`, never through `self`.
        unsafe {
            let sched: *mut Context = &mut *(*set).sched;
            imp::switch(sched, &(&(*set).slots)[i].ctx);
        }
        CURRENT.with(|c| c.set(prev));
        self.current
    }

    /// Take fiber `i`'s panic payload, if it panicked.
    pub(crate) fn take_panic(&mut self, i: usize) -> Option<Box<dyn std::any::Any + Send>> {
        self.slots[i].panic.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fibers_interleave_in_switch_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut set = FiberSet::new();
        for id in 0..3u32 {
            let log = Rc::clone(&log);
            set.spawn(
                64 * 1024,
                Box::new(move || {
                    // Round-robin by direct switches: no fiber returns to
                    // the scheduler until it finishes.
                    for step in 0..3u32 {
                        log.borrow_mut().push(id * 10 + step);
                        switch_to(((id + 1) % 3) as usize);
                    }
                }),
            );
        }
        // Fiber 0 takes its last step, switches round the ring once more
        // and is the first to fall off the end of its loop.
        assert_eq!(set.resume(0), 0, "resume reports the fiber that finished");
        assert_eq!(*log.borrow(), vec![0, 10, 20, 1, 11, 21, 2, 12, 22]);
        // The others are parked in their last `switch_to`; each finishes
        // as soon as it runs again, without touching the log.
        assert_eq!(set.resume(2), 2);
        assert_eq!(set.resume(1), 1);
        assert_eq!(log.borrow().len(), 9);
    }

    #[test]
    fn resume_returns_only_when_some_fiber_finishes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut set = FiberSet::new();
        let (l0, l1) = (Rc::clone(&log), Rc::clone(&log));
        set.spawn(
            64 * 1024,
            Box::new(move || {
                l0.borrow_mut().push("0 starts");
                switch_to(1);
                l0.borrow_mut().push("0 ends");
            }),
        );
        set.spawn(
            64 * 1024,
            Box::new(move || {
                l1.borrow_mut().push("1 runs");
            }),
        );
        // Resuming 0 runs 1, which finishes first: that is what resume
        // reports, with fiber 0 still suspended.
        assert_eq!(set.resume(0), 1);
        assert_eq!(*log.borrow(), vec!["0 starts", "1 runs"]);
        assert_eq!(set.resume(0), 0);
        assert_eq!(*log.borrow(), vec!["0 starts", "1 runs", "0 ends"]);
    }

    #[test]
    fn finished_fiber_reports_finished() {
        let mut set = FiberSet::new();
        set.spawn(64 * 1024, Box::new(|| {}));
        assert_eq!(set.resume(0), 0);
        assert!(set.take_panic(0).is_none());
    }

    #[test]
    fn panic_is_captured_not_propagated() {
        let mut set = FiberSet::new();
        set.spawn(
            64 * 1024,
            Box::new(|| {
                switch_to(1);
                panic!("inside fiber");
            }),
        );
        set.spawn(64 * 1024, Box::new(|| switch_to(0)));
        // Fiber 0 panics while fiber 1 is switched away.
        assert_eq!(set.resume(0), 0);
        let payload = set.take_panic(0).expect("payload captured");
        let msg = payload
            .downcast_ref::<&'static str>()
            .copied()
            .unwrap_or("?");
        assert_eq!(msg, "inside fiber");
        assert_eq!(set.resume(1), 1, "the sibling still runs to completion");
        assert!(set.take_panic(1).is_none());
    }

    #[test]
    fn deep_stack_use_survives() {
        fn burn(n: u64) -> u64 {
            // Recursion with a live local per frame defeats tail calls.
            let local = [n; 8];
            if n == 0 {
                local[0]
            } else {
                burn(n - 1) + local[7]
            }
        }
        let mut set = FiberSet::new();
        set.spawn(
            512 * 1024,
            Box::new(|| {
                assert_eq!(burn(1000), 500_500);
            }),
        );
        assert_eq!(set.resume(0), 0);
    }
}

(** Execution-driven cycle-level simulator of the word-interleaved cache
    clustered VLIW processor (paper Sections 2.1, 2.3, 4.1, 5).

    The machine issues the modulo schedule in lock-step: iteration [k] of an
    operation issues at virtual cycle [cycle + II * k]. The whole machine is
    {e stall-on-use}: when any operation of the current VLIW instruction
    needs a register value that has not arrived (a load still in flight, a
    cross-cluster copy still on a bus), the machine freezes — real cycles
    advance, the virtual clock does not; those frozen cycles are the
    {e stall time} of Figure 7, the issued ones the {e compute time}.

    Memory system:
    - each cluster owns a cache module holding the subblocks that map to it;
      modules are write-through presence trackers over a single flat memory
      image, serviced one request per cycle in arrival (FIFO) order — this
      ordering is what makes the MDC guarantee real;
    - remote accesses travel as transactions over the shared memory buses
      (FIFO arbitration, [bus_latency]-cycle transfers); queueing delay is
      the paper's non-deterministic bus latency (footnote 2);
    - misses allocate an MSHR per subblock and fetch from the next level
      (4 ports, fixed 10-cycle total service, always a hit); later accesses
      to a pending subblock {e combine} (Figure 6's "combined" class);
    - optional Attraction Buffers replicate remote subblocks per cluster
      (Section 5); buffer hits count as local hits;
    - a store instance pinned to a cluster by store replication executes
      only when the computed address' home is its own cluster, and is
      {e nullified} otherwise (updating its cluster's Attraction Buffer copy
      if present, Section 5.3).

    The simulator runs in two data modes. [Execution] reads and writes the
    flat memory at the time each access is {e applied} at its home module,
    so out-of-order arrivals of aliased accesses corrupt data exactly as the
    paper warns. [Oracle] feeds every load its value from a reference
    interpreter trace — the paper's trace-driven simulation (Section 4.1
    footnote: the optimistic baselines stay measurable because coherence is
    guaranteed by construction). Both modes count {e coherence violations}:
    aliased accesses applied against program order, or loads observing
    provably-stale Attraction Buffer copies. *)

type mode = Oracle of Vliw_ir.Interp.result | Execution

type stats = {
  total_cycles : int;
  compute_cycles : int;
  stall_cycles : int;  (** [total - compute] *)
  stall_load_cycles : int;
      (** stalled cycles blocked on a load in service at a cache module or
          MSHR (the access itself, not its bus trip) *)
  stall_copy_cycles : int;
      (** stalled cycles blocked on a cross-cluster register copy *)
  stall_bus_cycles : int;
      (** stalled cycles blocked on a transaction queued on or crossing a
          memory bus — the paper's non-deterministic bus latency made
          visible *)
  stall_drain_cycles : int;
      (** trailing cycles after the last bundle issued, spent draining
          in-flight bus and module traffic. The four buckets partition
          [stall_cycles] exactly. *)
  local_hits : int;
  remote_hits : int;
  local_misses : int;
  remote_misses : int;
  combined : int;
  ab_hits : int;  (** loads satisfied by the Attraction Buffer (a subset of
                      [local_hits]) *)
  ab_flushed : int;  (** valid AB entries dropped by the end-of-loop flush *)
  violations : int;  (** coherence order violations observed *)
  nullified : int;  (** replicated store instances that did not execute *)
  comm_ops : int;  (** dynamic copy operations (copies per iteration x trip) *)
  dir_lookups : int;
      (** directory-bank lookups at home clusters (0 under the bus backend) *)
  dir_invalidates : int;  (** invalidate packets sent by home banks *)
  dir_writebacks : int;  (** writeback acknowledgements received by home banks *)
  packet_hops : int;  (** total ring-link traversals of all packets *)
  prot_invalidations : int;
      (** replicas dropped to Invalid by a remote store's upgrade
          (MSI/MESI only, 0 under install/flush) *)
  prot_upgrades : int;  (** Shared -> Modified store upgrades (MSI/MESI) *)
  prot_exclusive_hits : int;
      (** silent Exclusive -> Modified upgrades (MESI only) *)
  memory : Bytes.t;  (** final memory image (meaningful in [Execution]) *)
}

val accesses_total : stats -> int
(** All classified memory accesses (the denominator of Figure 6). *)

type engine = [ `Wheel | `Reference ]
(** [`Wheel] (the default) is the event-wheel engine: an indexed calendar of
    int-encoded events plus flat preallocated per-instance state arrays —
    the fast path. [`Reference] is the pre-overhaul closure-calendar
    engine, kept as the correctness oracle for how the wheel stores time
    and per-instance state. Both run the same memory system ([Memsys]),
    which also drives the interconnect; the two produce bit-identical stats, memory images, trace event
    streams and PRNG consumption for identical inputs (pinned by
    test/test_engines.ml). *)

type chooser = Sim_types.chooser = {
  ch_jitter : int;
      (** declared jitter bound: every draw is a value in [0, ch_jitter] *)
  ch_draw : bound:int -> int;
      (** resolves the next nondeterministic draw; [bound] = [ch_jitter + 1]
          alternatives, the returned value must lie in [0, bound). Called at
          exactly the sites where a PRNG-driven run would call
          [Prng.int]: once per bus grant, once per ring-packet hop. *)
  ch_note_state : ((unit -> string) -> unit) option;
      (** wheel engine only: called at the start of every cycle whose
          network phase will consume at least one draw (a bus is free for
          a queued request, or a due packet's link is open), and of no
          other cycle, with the encoder of a canonical serialization of
          the complete simulator state. The encoder reads the state as it
          is during the call, before the network phase runs, so a chooser
          that wants the string must call it inside the callback; one
          that does not pays nothing. The string is binary
          ({!Vliw_util.Codec}); two runs of one prepared schedule encoding
          equal strings are in behaviorally identical states: every
          extension by the same future draws yields byte-identical final
          stats. Inside the callback a chooser of a run on a prepared
          engine may also take a {!checkpoint} of that state. A run
          {!resume}d from a checkpoint does not note the cycle it resumes
          in again. The reference engine never calls it. *)
}
(** Externalized nondeterminism for bounded model checking: the engine asks
    the chooser for every jitter draw instead of a PRNG, so a driver
    ({!Vliw_check.Check}) can enumerate the full bounded interleaving
    space. Mutually exclusive with [?jitter]. *)

val run :
  lowered:Vliw_lower.Lower.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:Vliw_sched.Schedule.t ->
  layout:Vliw_ir.Layout.t ->
  ?mode:mode ->
  ?jitter:Vliw_util.Prng.t * int ->
  ?choices:chooser ->
  ?warm:bool ->
  ?trace:Vliw_trace.Trace.sink ->
  ?engine:engine ->
  unit ->
  stats
(** Simulate the scheduled loop for the kernel's declared trip count
    ([Invalid_argument] when it is not positive). [graph]/[schedule] may
    be the transformed (MDC/DDGT) versions; [lowered] supplies operand
    semantics, which replicas resolve through their original node. [mode]
    defaults to [Execution]. [jitter = (prng, j)] adds 0..j extra cycles
    to every bus transfer — the unmodeled traffic (replacements, other
    engines) of the paper's footnote 2; defaults to none.

    [warm] (default false, requires [Oracle] mode) pre-populates the cache
    modules by replaying the oracle's address trace before timing starts:
    the paper's loops execute many times per program run, so their steady
    state is a warm cache; working sets larger than the 8KB cache still
    miss.

    [trace] attaches an event recorder ({!Vliw_trace.Trace}): the run emits
    a [Meta] header plus one event per bundle issue, stall episode, bus
    request/grant/transfer, cache-module service, MSHR allocate / combine /
    fill, coherence-order apply, Attraction Buffer hit / update / install /
    flush, and store-replica nullification. With no sink the recording code
    costs one predictable branch per site. The emitted stream is exactly
    reproducible for identical inputs, and {!Vliw_trace.Audit} can re-derive
    [violations] and [nullified] from it independently.

    On the wheel engine this is [exec (prepare ...) ...] on an engine
    built for this one run, which therefore takes no checkpoint of its
    initial state. *)

(** {1 Reusing one engine}

    A caller that simulates one compiled loop many times (the model
    checker runs a schedule once per explored branch; the fuzzer runs
    each schedule nominally and jittered) prepares the wheel engine once
    and executes it per run, or resumes it from a checkpoint. *)

type prepared
(** A wheel engine built for one compiled loop: its static tables, every
    mutable array and a checkpoint of the state each run starts from. It
    belongs to the caller that prepared it: runs on it must not overlap
    (not from two domains, and not from inside a chooser callback of its
    own run). *)

val prepare :
  lowered:Vliw_lower.Lower.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:Vliw_sched.Schedule.t ->
  layout:Vliw_ir.Layout.t ->
  ?mode:mode ->
  ?warm:bool ->
  unit ->
  prepared
(** Build the wheel engine for the arguments {!run} takes, with the same
    defaults and the same [Invalid_argument]s. *)

val exec :
  prepared ->
  ?jitter:Vliw_util.Prng.t * int ->
  ?choices:chooser ->
  ?trace:Vliw_trace.Trace.sink ->
  unit ->
  stats
(** One simulation on a prepared engine, from cycle 0: the engine first
    restores, in place, the checkpoint {!prepare} took of its initial
    state (a fresh engine skips that), so the result is byte-identical to
    a fresh {!run} with the same arguments (stats, memory, trace events
    and transaction ids, draw consumption), whatever ran on the engine
    before — including a run abandoned by an exception from a chooser.
    The returned memory image is the caller's own copy; a finished run
    leaves no reference to it, nor to any value it computed, in the
    engine. *)

type checkpoint
(** A prepared engine's complete mutable state at one note: the engine's
    clock, event wheel, instance arrays, MSHR chains and module queues,
    and the memory system's image, coherence order, occupied cache sets,
    Attraction Buffers, counters, draw count and bus or directory. It
    holds copies, so later runs do not change it, and it can be resumed
    any number of times. *)

val checkpoint : prepared -> checkpoint
(** The state of the run in progress, as the encoder of the current
    note reads it.
    @raise Invalid_argument outside a [ch_note_state] callback of a run
    on this engine. *)

val resume : prepared -> checkpoint -> ?choices:chooser -> unit -> stats
(** Continue from a checkpoint of this engine: restore it in place and
    run from the network phase of its cycle, taking that phase's draws
    and every later one from [choices] (all 0 without one) and noting
    later cycles as {!exec} does. The result is byte-identical, in every
    stats field and the memory image, to a run from cycle 0 that makes
    the draws the checkpointed run made before its cycle, then the same
    draws as this one; so is every state key noted after the cycle.
    Untraced.
    @raise Invalid_argument if another engine took the checkpoint. *)

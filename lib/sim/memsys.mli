(** The simulator's memory system, shared by both engines: every rule the
    paper's results rest on is written here once.

    An engine keeps only what differs between engines — how it stores
    time (its event calendar) and per-instance state (registers, copies,
    load phases, MSHR waiter lists, module queues, issue buckets) — and
    calls in here wherever the memory system decides something. The
    engine supplies its own address→home, address→subblock and
    subblock→addresses mappings, so the wheel engine's strength-reduced
    geometry stays under the equivalence test. Accesses are named by
    their coherence sequence number [seq = iter * sites + site].

    The transport is decided here too: this module builds the
    interconnect backend the machine declares
    ({!Vliw_interconnect.Interconnect}), sends both legs of every remote
    access, runs each cycle's network step and keeps the ring's
    invalidate and writeback traffic to itself. An engine names no
    backend; it only runs a leg when the leg arrives.

    Replica state has one owner: the Attraction Buffer lines, each
    carrying its MSI/MESI state. Under a protocol this module reads a
    subblock's states from the buffers, asks
    {!Vliw_coherence.Coherence} for the transitions an event causes,
    and applies them — line state, traffic counters and one
    [Prot_transition] trace event each. The directory's present mask
    stays a separate, lagging fact (see
    {!Vliw_interconnect.Interconnect.Directory.store_apply}), as does
    each line's [written] bit: an owner's refill keeps [M] but resets
    it. *)

type t

val create :
  machine:Vliw_arch.Machine.t ->
  mem:Bytes.t ->
  sites:int ->
  trip:int ->
  mode:Sim_types.mode ->
  warm:bool ->
  now:int ref ->
  home_of:(int -> int) ->
  subblock_of:(int -> int) ->
  addrs_of:(int -> int array) ->
  unit ->
  t
(** [mem] is the initial image (the memory system works on its own
    copy); [now] the engine's clock. The interconnect is built fresh
    from [machine]: a bus pool, or a ring whose hop takes
    {!Vliw_interconnect.Interconnect.hop_latency}. [warm] replays the
    oracle's address trace into the cache modules once, here: a
    checkpoint {!capture}d right after [create] is the state every run
    starts from. Call {!start} before each run.
    @raise Invalid_argument if [warm] is set outside [Oracle] mode. *)

val start :
  t ->
  ?jitter:Vliw_util.Prng.t * int ->
  ?choices:Sim_types.chooser ->
  trace:Vliw_trace.Trace.sink option ->
  unit ->
  unit
(** Start a run, or resume one: it takes its draws from [jitter] or
    [choices] and traces into [trace]. The state is left as it is. *)

(** {1 Checkpoints} *)

type snapshot
(** Everything a run mutates, listed once: the memory image, coherence
    order, cache modules (their occupied sets), Attraction Buffers,
    executed-store marks, next-level ports, protocol latches, counters,
    the draw count and the interconnect (traffic counters and transaction
    ids included). *)

val capture : t -> snapshot

val restore : t -> snapshot -> unit
(** Put the memory system back in the captured state, with a fresh copy
    of the captured image for the run to own. A run abandoned partway
    (an exception from a chooser) leaves nothing that survives this. *)

(** {1 Issue} *)

val store :
  t -> own:int -> seq:int -> addr:int -> size:int -> value:int64 ->
  replicated:bool -> unit
(** An executing store: freshen the own cluster's Attraction Buffer copy;
    under MSI/MESI also latch older pending loads, invalidate remote
    replicas and apply the store now. *)

val nullify :
  t -> own:int -> site:int -> iter:int -> addr:int -> size:int ->
  value:int64 -> unit
(** A replicated store instance whose address is not homed at its own
    cluster (Section 5.3): it only freshens its own buffered copy. *)

val ab_read :
  t -> own:int -> seq:int -> addr:int -> size:int -> ty:Vliw_ir.Ast.ty ->
  int64 option
(** A remote load tries its cluster's Attraction Buffer: on a hit, count
    it (and a violation if the copy is provably stale) and return the
    value. *)

val track_load : t -> seq:int -> addr:int -> size:int -> unit
(** A load left for its home module (MSI/MESI latch bookkeeping). *)

(** {1 Home module} *)

val combine : t -> cluster:int -> subblock:int -> seq:int -> unit
(** The access joined a pending MSHR for its subblock. *)

val lookup :
  t -> cluster:int -> subblock:int -> seq:int -> store:bool -> addr:int ->
  size:int -> local:bool -> bool
(** Classify a non-combined access at its home module: hit ([true]) or
    miss, with the directory lookup, counters and events. A miss needs an
    MSHR and an {!l2_fetch}. *)

val complete :
  t -> cluster:int -> subblock:int -> seq:int -> store:bool -> addr:int ->
  size:int -> value:int64 -> requester:int -> int64
(** The access takes effect at its home module (a hit, or a waiter of a
    filled MSHR): returns what a load observes. *)

val l2_fetch : t -> int
(** Claim a next-level port for a miss issued now; returns the fill cycle. *)

val fill : t -> cluster:int -> subblock:int -> waiters:int -> unit
(** The next level filled [subblock] into its module, for [waiters]
    MSHR waiters. *)

(** {1 Responses} *)

val ab_fill : t -> own:int -> addr:int -> unit
(** A remote load's response reached [own]: install the subblock in its
    Attraction Buffer unless that would make a stale copy. *)

(** {1 The interconnect}

    A remote access crosses it twice: leg 0 carries the request from the
    requester to the home module, leg 1 the response back. [key] is the
    engine's name for the access, handed back when its leg arrives. *)

val send : t -> leg:int -> src:int -> dst:int -> int -> unit
(** Send one leg of the access [key] from cluster [src] to [dst] now,
    traced as a [Bus_request]: at the requester on both bus legs, at
    [src] on the ring. *)

val network :
  t ->
  granted:(arrival:int -> txn:int -> bus:int -> leg:int -> int -> unit) ->
  arrived:(leg:int -> int -> unit) ->
  unit
(** The cycle's network step, drawing once per bus grant or ring hop
    ([0], a PRNG value in [0, j] under [?jitter], or the chooser's
    answer, traced as a [Choice]). A bus grant hands [granted] its leg's
    [arrival] cycle, transaction and bus: the engine runs the leg then,
    tracing its [Bus_transfer]. A ring packet reaching its cluster is
    handed to [arrived] now; the directory's invalidates and writeback
    acknowledgements are delivered here. *)

val network_draws : t -> bool
(** The coming {!network} step consumes at least one draw: the model
    checker's branch-point predicate. *)

val in_flight : t -> bool
(** A leg or a directory packet is still queued or travelling: the run
    is not over. *)

(** {1 End of run} *)

val finish :
  t -> compute:int -> stall_load:int -> stall_copy:int -> stall_bus:int ->
  comm_ops:int -> Sim_types.stats
(** Flush the Attraction Buffers and build the run's stats, with the
    run's own memory image, which no later run touches and the memory
    system no longer references; the total is the clock's current
    value. *)

(** {1 State-key segments}

    The wheel engine's canonical state key, in its order: counters
    (protocol traffic included); memory, coherence order and executed
    stores; next-level ports; cache modules and buffers (their lines'
    protocol states included); the interconnect, last. *)

val encode_counters : t -> Vliw_util.Codec.t -> unit
val encode_memory : t -> Vliw_util.Codec.t -> unit
val encode_l2 : t -> Vliw_util.Codec.t -> unit
val encode_caches : t -> Vliw_util.Codec.t -> unit
val encode_network : t -> Vliw_util.Codec.t -> unit

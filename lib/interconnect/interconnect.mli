(** The interconnect abstraction: how clusters reach remote cache
    modules, as a signature with explicit ordering guarantees plus the
    two backends implementing it.

    One module drives these components: the simulator's memory system
    ([Vliw_sim.Memsys]). It builds the backend the machine declares,
    sends both legs of every remote access, runs each cycle's network
    step and keeps the directory's sharer bookkeeping. The simulator
    engines name no backend: they only keep the calendar that runs a leg
    when it arrives. Every arbitration decision, jitter draw and delivery
    order is made inside this library.

    {b Bus} is the paper's machine: a pool of shared memory buses
    draining one global FIFO request queue. Ordering guarantee: global
    FIFO grant order with a fixed nominal transfer latency, so two
    transactions injected in order arrive in order — {e unless}
    per-transfer jitter is enabled, in which case independently drawn
    latencies can invert arrivals.

    {b Directory} is a packet-switched bidirectional ring with a
    distributed directory sharded by home cluster. Each directed link is
    a FIFO channel (packets cannot overtake on a link, even under
    jitter), but there is no global arbitration order across sources.
    The directory bank at each home cluster tracks, per subblock, a
    present-bit mask of clusters it believes hold an Attraction-Buffer
    replica, and drives invalidate / fetch / writeback flows. The mask
    is the directory's own lagging belief, not a view of the buffers:
    {!Directory.store_apply} clears bits while their invalidates are
    still in flight, and a fill confirmed before such an invalidate
    lands keeps its bit after the invalidate kills the copy.

    Both backends carry [int] payloads naming one leg of a transaction,
    which the backend never looks inside. *)

module M = Vliw_arch.Machine

(** {1 Declared ordering guarantees}

    The static verifier consumes these instead of hardcoding bus-FIFO
    reasoning: a proof rule that leans on an ordering the selected
    backend does not declare must reject the schedule. *)

(** Delivery order of two conflicting packets injected by the same
    cluster (same source, meeting at the same home module):
    - [Global_fifo]: a single arbitration queue over all sources; any
      two in-order injections arrive in order (nominal latencies).
    - [Per_link_fifo]: each link is a non-overtaking FIFO channel;
      same-source packets to the same destination share a route and
      arrive in order, but packets from different sources are unordered.
    - [Unordered]: no delivery-order guarantee at all (no shipped
      backend declares this; the verifier must reject any proof that
      needs source ordering against such a backend). *)
type source_order = Global_fifo | Per_link_fifo | Unordered

type guarantees = {
  g_interconnect : M.interconnect;
  g_source_order : source_order;
  g_order_under_jitter : bool;
      (** does [g_source_order] survive per-transfer latency jitter?
          True for FIFO channels (a delayed packet delays its
          followers), false for the bus pool (independent draws per
          grant can invert arrivals). *)
  g_min_remote_latency : int;
      (** lower bound, in cycles, of any remote leg; the local-first
          proof rule needs this to be at least 1 *)
}

val guarantees : M.t -> guarantees
(** The guarantees declared by [machine.interconnect]. *)

val hop_latency : M.t -> int
(** The nominal latency of one ring hop: the memory buses' transfer
    latency, at least 1. The one place a hop is priced: the ring the
    simulator builds and the directory's {!guarantees} both read it. *)

(** {1 Bus: shared memory buses over one global FIFO queue} *)

module Bus : sig
  type t

  val create : buses:int -> latency:int -> t

  val request : t -> now:int -> int -> int
  (** Enqueue a transaction with the sender's payload; returns its fresh
      transaction id. *)

  val pending : t -> bool
  (** Requests queued but not yet granted (a simulation keeps running
      until the queue drains). *)

  val draws : t -> now:int -> bool
  (** The coming {!dispatch} round at [now] consumes at least one jitter
      draw: a request is queued and a bus is free. It consumes none
      otherwise — the model checker's "does the network branch this
      cycle" predicate. *)

  val encode_state : t -> now:int -> Vliw_util.Codec.t -> unit
  (** Append a canonical serialization of the bus state (busy horizons
      relativized to [now], queue payloads in FIFO order) for
      model-checking state keys. Transaction ids and request stamps are
      trace-only and excluded: two buses with equal encodings grant the
      same payloads at the same relative cycles under the same future
      draws. *)

  val dispatch :
    t ->
    now:int ->
    jit:(unit -> int) ->
    grant:
      (txn:int -> bus:int -> wait:int -> lat:int -> arrival:int -> int -> unit) ->
    unit
  (** One arbitration round: every free bus grants the queue head, in
      bus-index order. [jit] is drawn exactly once per grant, after the
      pop — the call site the simulator's PRNG streams are pinned to.
      [lat] is the full transfer latency ([latency + jit ()]) and
      [arrival = now + lat]. *)

  type snapshot
  (** Busy horizons, the queued requests and the next transaction id. *)

  val capture : t -> snapshot

  val restore : t -> snapshot -> unit
  (** Put the pool back in the captured state exactly; the queue keeps
      the capacity it grew to. *)
end

(** {1 Directory: packet-switched ring + distributed directory} *)

module Directory : sig
  type t

  (** What arrives at a cluster when a packet completes its last hop. *)
  type delivery =
    | Leg of { leg : int; key : int }
        (** one leg of a remote access: the request (leg 0) reaching its
            home module, or the response (leg 1) bringing fill data back
            to the requester; [key] is the sender's payload *)
    | Invalidate of { subblock : int; home : int }
        (** directory orders this cluster to drop its replica *)
    | Writeback_ack of { subblock : int; from : int }
        (** a sharer acknowledged an invalidate of a locally-written
            replica; arrives at the home bank *)

  type stats = {
    d_lookups : int;  (** directory-bank lookups at home clusters *)
    d_invalidates : int;  (** invalidate packets sent *)
    d_writebacks : int;  (** writeback acknowledgements received *)
    d_hops : int;  (** total link traversals of all packets *)
  }

  val create : clusters:int -> hop_latency:int -> t

  val pending : t -> bool
  (** Packets still in flight (a simulation keeps running until the
      network drains). *)

  val draws : t -> now:int -> bool
  (** The coming {!step} at [now] consumes at least one jitter draw: a
      packet due now is not at its destination and its link is open.
      It consumes none otherwise (arrivals and retries behind a busy
      link do not draw) — the model checker's "does the network branch
      this cycle" predicate. *)

  val encode_state : t -> now:int -> Vliw_util.Codec.t -> unit
  (** Append a canonical serialization of the ring + directory state for
      model-checking state keys: link horizons relativized to [now], the
      calendar in ascending-cycle order with packets in processing order,
      the sharer masks in subblock order (an empty mask is not kept), and
      the traffic counters (they surface in the final stats). Transaction
      ids are trace-only and excluded. Both structures are walked in the
      order they are kept, with no sort. *)

  val send : t -> now:int -> src:int -> dst:int -> leg:int -> int -> int
  (** Inject a [Leg] packet carrying the sender's payload; returns its
      transaction id. *)

  val lookup : t -> subblock:int -> int
  (** Record a lookup at [subblock]'s home directory bank; returns the
      current sharer mask (for tracing). Called when a request is first
      serviced at its home module (combined requests share the
      original's lookup). *)

  val store_apply : t -> now:int -> home:int -> subblock:int -> requester:int -> int
  (** A store took effect at [home]: enqueue an invalidate packet to
      every sharer except [requester] and clear their present bits now,
      before the invalidates arrive. Returns the number of invalidates
      sent. *)

  val confirm_install : t -> cluster:int -> subblock:int -> unit
  (** The requester accepted a fill into its Attraction Buffer: set its
      present bit. A delivered invalidate does not clear it, so a fill
      confirmed while an invalidate to the same cluster is in flight
      leaves the bit set after that invalidate kills the copy; the next
      {!store_apply} invalidates the cluster again. *)

  val drop_replica : t -> cluster:int -> subblock:int -> unit
  (** A replica left its buffer outside the invalidate flow (an AB
      capacity victim, or a copy a protocol store dropped at execute):
      clear its present bit so the directory stops tracking it. *)

  val writeback : t -> now:int -> src:int -> home:int -> subblock:int -> unit
  (** A sharer invalidated a locally-written replica: send the
      writeback acknowledgement packet back to the home bank. *)

  val step :
    t ->
    now:int ->
    jit:(unit -> int) ->
    emit_hop:(txn:int -> src:int -> dst:int -> unit) ->
    deliver:(dst:int -> txn:int -> delivery -> unit) ->
    unit
  (** Advance every packet due this cycle by one hop, in deterministic
      (scheduling) order. [jit] is drawn once per hop; a jittered hop
      cannot overtake its link predecessor (links are FIFO channels).
      [emit_hop] fires for every link traversal; [deliver] fires when a
      packet completes its final hop. *)

  val stats : t -> stats

  type snapshot
  (** Copies of the link horizons, and the packets in flight, the sharer
      masks, the traffic counters and the next transaction id, shared:
      packets, calendar and masks are immutable values. *)

  val capture : t -> snapshot

  val restore : t -> snapshot -> unit
  (** Put the ring and the directory back in the captured state exactly:
      blits the link horizons, shares the rest. Allocates nothing. *)
end

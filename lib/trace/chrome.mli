(** Chrome trace-event JSON export (the format Perfetto and
    [chrome://tracing] load).

    One process ([pid] 0) with one track per cluster ([tid] = cluster), one
    track per memory bus ([tid] = 100 + bus) and a machine-wide issue/stall
    track ([tid] 990). Cycles map 1:1 to the format's microsecond
    timestamps, so Perfetto's time axis reads directly in cycles. Stall
    episodes and bus transfers are duration ([ph:"X"]) events; everything
    else is an instant. Events are emitted in the deterministic
    [(cycle, cluster, seq)] order, so the output is byte-identical for
    identical runs. *)

val to_json : Trace.sink -> Vliw_util.Json.t

val to_string : Trace.sink -> string

val write_file : string -> Trace.sink -> unit

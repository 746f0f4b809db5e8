(** A SIGPROF sampling profiler for OCaml code.

    [ITIMER_PROF] raises SIGPROF once per interval of process CPU time
    and the handler records the OCaml call stack. OCaml runs a signal
    handler at its next poll point (an allocation, a function entry or a
    loop back-edge), so a sample lands there and not on the instruction
    the timer hit: time spent inside a C primitive (polymorphic compare,
    hashing, a blit) shows in the OCaml frame that called it. Treat the
    shares as a map of where to look; a speed-up claim needs an A/B run. *)

(** Start sampling once per millisecond of CPU time, keeping up to 96
    frames per sample. Drops any earlier samples. *)
val start : unit -> unit

(** Stop the timer; the samples taken so far stay for {!report}. *)
val stop : unit -> unit

(** Number of samples taken. *)
val count : unit -> int

(** Print four tables of the top 25 entries: self time
    (the innermost frame), self time by module (the module of the first
    non-stdlib frame, so a [Hashtbl.find_opt] counts toward the module
    that called it), inclusive time (every function on the stack, once
    per sample), and, for samples whose innermost frame is in the
    standard library, the stdlib function with its first non-stdlib
    caller. *)
val report : out_channel -> unit

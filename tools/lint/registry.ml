(** The rule table. Adding a rule is: write a module implementing
    {!Rule.S} (~50 LoC for an AST rule), list it here. *)

let all : Rule.t list =
  [
    (module Rule_sql_injection);
    (module Rule_determinism);
    (module Rule_exception_hygiene);
    (module Rule_mli_coverage);
    (module Rule_no_catch_all);
    (module Rule_twopc_state);
    (module Rule_lock_order);
    (module Rule_span_conservation);
    (module Rule_transitive_blocking);
    (module Rule_cancel_safety);
    (module Rule_deadline);
    (module Rule_metric_registry);
    (module Rule_snapshot_discipline);
    (module Rule_no_reparse);
  ]

let find id =
  List.find_opt
    (fun (rule : Rule.t) ->
      let module R = (val rule) in
      String.equal R.id id || String.equal R.name id)
    all

type config = {
  events : int;
  days : int;
  commits_per_event : int;
  postgres_fraction : float;
}

let words =
  [|
    "fix"; "bug"; "in"; "planner"; "add"; "support"; "for"; "index"; "update";
    "docs"; "remove"; "dead"; "code"; "refactor"; "tests"; "improve"; "error";
    "message"; "handle"; "edge"; "case"; "cleanup"; "optimize"; "query";
    "rewrite"; "parser"; "merge"; "branch"; "release"; "version";
  |]

let message rng mentions_postgres =
  let n = 3 + Random.State.int rng 5 in
  let parts =
    List.init n (fun _ -> words.(Random.State.int rng (Array.length words)))
  in
  let parts =
    if mentions_postgres then
      let k = Random.State.int rng (List.length parts) in
      List.mapi (fun i w -> if i = k then "postgres" else w) parts
    else parts
  in
  String.concat " " parts

let hex rng n =
  String.init n (fun _ -> "0123456789abcdef".[Random.State.int rng 16])

let event_json rng cfg i =
  let day = 1 + (i * cfg.days / max 1 cfg.events) in
  let created = Printf.sprintf "2020-02-%02dT%02d:00:00Z" day (i mod 24) in
  let mentions = Random.State.float rng 1.0 < cfg.postgres_fraction in
  let commits =
    List.init cfg.commits_per_event (fun k ->
        Json.Obj
          [
            ("sha", Json.Str (hex rng 12));
            ("author", Json.Str (Printf.sprintf "dev%d" (Random.State.int rng 50)));
            ("message", Json.Str (message rng (mentions && k = 0)));
          ])
  in
  Json.Obj
    [
      ("type", Json.Str "PushEvent");
      ("created_at", Json.Str created);
      ("actor", Json.Str (Printf.sprintf "user%d" (Random.State.int rng 100)));
      ("repo", Json.Str (Printf.sprintf "org/repo%d" (Random.State.int rng 40)));
      ( "payload",
        Json.Obj
          [
            ("push_id", Json.Num (float_of_int i));
            ("size", Json.Num (float_of_int cfg.commits_per_event));
            ("commits", Json.Arr commits);
          ] );
    ]

let setup_schema db =
  ignore
    (Db.exec db
       "CREATE TABLE github_events (event_id text PRIMARY KEY, data jsonb)");
  Db.distribute db ~table:"github_events" ~column:"event_id" ();
  (* pg_trgm GIN index over the commit messages inside the JSON (§4.2) *)
  ignore
    (Db.exec db
       "CREATE INDEX text_search_idx ON github_events USING GIN \
        ((jsonb_path_query_array(data, '$.payload.commits[*].message')::text) \
        gin_trgm_ops)")

let generate_lines ?(seed = 11) cfg =
  let rng = Random.State.make [| seed |] in
  List.init cfg.events (fun i ->
      let id = hex rng 32 in
      let json = Json.to_string (event_json rng cfg i) in
      id ^ "\t" ^ json)

let load db ?seed cfg =
  let lines = generate_lines ?seed cfg in
  let rec batches total = function
    | [] -> total
    | lines ->
      let batch = List.filteri (fun i _ -> i < 200) lines in
      let rest = List.filteri (fun i _ -> i >= 200) lines in
      let n =
        Engine.Instance.copy_in db.Db.session ~table:"github_events"
          ~columns:None batch
      in
      batches (total + n) rest
  in
  batches 0 lines

let dashboard_query =
  "SELECT (data->>'created_at')::date, \
   sum(jsonb_array_length(data->'payload'->'commits')) \
   FROM github_events \
   WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text \
   ILIKE '%postgres%' GROUP BY 1 ORDER BY 1 ASC"

let create_rollup_table db =
  ignore
    (Db.exec db
       "CREATE TABLE commits (event_id text PRIMARY KEY, day text, \
        first_message text, n_commits bigint)");
  Db.distribute db ~table:"commits" ~column:"event_id"
    ~colocate_with:"github_events" ()

let transformation_query =
  "INSERT INTO commits (event_id, day, first_message, n_commits) \
   SELECT event_id, (data->>'created_at')::date, \
   data->'payload'->'commits'->0->>'message', \
   jsonb_array_length(data->'payload'->'commits') \
   FROM github_events"

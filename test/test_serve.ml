(* Chaos and contract tests for the design server.

   The server's whole externally-visible behaviour is
   [Serve.Server.handle_line]; these tests drive it in-process and
   assert the resilience contract: every admitted well-formed request
   gets exactly one structured response, injected faults (malformed
   input, oversized sources, poisoned budgets, mid-request cancellation,
   worker death) are isolated to the request that carried them, and the
   loop itself never dies. *)

module J = Serve.Json
module P = Serve.Protocol
module S = Serve.Server
module H = Serve.Handlers

(* --- helpers ------------------------------------------------------------- *)

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e s

let status j =
  match P.response_status j with
  | Some s -> s
  | None -> Alcotest.fail "response has no status"

let field name j =
  match J.mem name j with Some v -> v | None -> Alcotest.failf "missing %s" name

let error_kind j =
  match J.mem "error" j with
  | Some e -> Option.value (Option.bind (J.mem "kind" e) J.str) ~default:"?"
  | None -> "?"

(* One response expected for one line. *)
let one server line =
  match S.handle_line server line with
  | [ r ] -> parse_ok r
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let all server line = List.map parse_ok (S.handle_line server line)

let quick_config =
  {
    S.default_config with
    S.max_timeout_ms = 20_000.;
    sleep = (fun _ -> ());
    chaos = true;
  }

(* Latency and wall-clock figures differ run to run; everything else in
   a response must be reproducible. *)
let rec normalize = function
  | J.Obj fields ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             match k with
             | "latency_ms" | "elapsed_s" | "uptime_s" -> None
             | _ -> Some (k, normalize v))
           fields)
  | J.List items -> J.List (List.map normalize items)
  | v -> v

(* --- JSON parser --------------------------------------------------------- *)

let test_json_roundtrip () =
  let samples =
    [
      J.Null; J.Bool true; J.Num 3.25; J.Num (-17.); J.Str "a\"b\\c\nd";
      J.List [ J.Num 1.; J.Str "x"; J.Null ];
      J.Obj [ ("a", J.Num 1.); ("b", J.List [ J.Bool false ]) ];
    ]
  in
  List.iter
    (fun v ->
      match J.parse (J.to_string v) with
      | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
      | Error e -> Alcotest.failf "roundtrip parse failed: %s" e)
    samples

let test_json_rejects () =
  let bad =
    [
      ""; "   "; "{"; "}"; "[1,"; "{\"a\":}"; "nul"; "truex"; "\"unterminated";
      "\"\\u12"; "\"\\ud800\""; "1 2"; "{\"a\":1}garbage"; "\x00\x01\x02";
      "{\"a\"\n:1}}"; "[1;2]"; "--3"; "1e"; "\xff\xfe";
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    bad

let test_json_depth_bomb () =
  let bomb = String.make 200 '[' ^ String.make 200 ']' in
  (match J.parse bomb with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth bomb accepted");
  (* At the cap it still parses. *)
  let deep = String.make 60 '[' ^ String.make 60 ']' in
  match J.parse deep with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 60 rejected: %s" e

let test_json_unicode () =
  (match J.parse "\"\\u00e9\\ud83d\\ude00\"" with
  | Ok (J.Str s) -> Alcotest.(check string) "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escapes rejected");
  match J.parse "\"\\udc00\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lone low surrogate accepted"

(* --- protocol validation ------------------------------------------------- *)

let limits = { P.max_source_bytes = 64; allow_chaos = false }

let decode_err line =
  match J.parse line with
  | Error e -> Alcotest.failf "test line is not JSON: %s" e
  | Ok j -> (
      match P.decode limits j with
      | Error (k, _) -> k
      | Ok _ -> Alcotest.failf "decoded: %s" line)

let test_protocol_version () =
  Alcotest.(check string) "missing version" "version"
    (decode_err {|{"kind":"ping"}|});
  Alcotest.(check string) "wrong version" "version"
    (decode_err {|{"fictionette-serve":2,"kind":"ping"}|});
  Alcotest.(check string) "non-object" "parse" (decode_err {|[1,2,3]|})

let test_protocol_validation () =
  Alcotest.(check string) "missing kind" "invalid_request"
    (decode_err {|{"fictionette-serve":1}|});
  Alcotest.(check string) "unknown kind" "invalid_request"
    (decode_err {|{"fictionette-serve":1,"kind":"frobnicate"}|});
  Alcotest.(check string) "poisoned timeout (1e999 = inf)" "invalid_request"
    (decode_err
       {|{"fictionette-serve":1,"kind":"design","benchmark":"c17","timeout_ms":1e999}|});
  Alcotest.(check string) "negative timeout" "invalid_request"
    (decode_err
       {|{"fictionette-serve":1,"kind":"design","benchmark":"c17","timeout_ms":-5}|});
  Alcotest.(check string) "zero timeout" "invalid_request"
    (decode_err
       {|{"fictionette-serve":1,"kind":"design","benchmark":"c17","timeout_ms":0}|});
  Alcotest.(check string) "no source" "invalid_request"
    (decode_err {|{"fictionette-serve":1,"kind":"design"}|});
  Alcotest.(check string) "both sources" "invalid_request"
    (decode_err
       {|{"fictionette-serve":1,"kind":"design","benchmark":"a","verilog":"b"}|});
  Alcotest.(check string) "oversized verilog" "oversized"
    (decode_err
       (Printf.sprintf
          {|{"fictionette-serve":1,"kind":"design","verilog":"%s"}|}
          (String.make 100 'x')));
  Alcotest.(check string) "chaos rejected outside chaos mode" "invalid_request"
    (decode_err
       {|{"fictionette-serve":1,"kind":"design","benchmark":"c17","chaos":"raise"}|})

(* --- server: protocol faults --------------------------------------------- *)

let test_malformed_lines_survive () =
  let server = S.create ~config:quick_config () in
  let nasty =
    [
      "not json"; "{\"truncated\":"; "\x00\xff\xfe"; "[[[[[[";
      "{\"fictionette-serve\":1}"; "{\"fictionette-serve\":\"x\",\"kind\":\"ping\"}";
      "{\"fictionette-serve\":1,\"kind\":\"design\"}"; "]"; "nulll";
    ]
  in
  List.iter
    (fun line ->
      let r = one server line in
      Alcotest.(check string) ("error status for " ^ String.escaped line)
        "error" (status r))
    nasty;
  (* Blank lines produce nothing; the loop is still alive afterwards. *)
  Alcotest.(check int) "blank line ignored" 0
    (List.length (S.handle_line server "   "));
  let r = one server {|{"fictionette-serve":1,"kind":"ping","id":7}|} in
  Alcotest.(check string) "still serving" "ok" (status r);
  Alcotest.(check bool) "id echoed" true (field "id" r = J.Num 7.)

let design_line ?(id = 1) ?(extra = "") bench =
  Printf.sprintf
    {|{"fictionette-serve":1,"kind":"design","benchmark":"%s","id":%d%s}|}
    bench id extra

let test_design_and_cache () =
  let server = S.create ~config:quick_config () in
  let r1 = one server (design_line "c17") in
  Alcotest.(check string) "cold ok" "ok" (status r1);
  let r2 = one server (design_line "c17") in
  Alcotest.(check string) "warm ok" "ok" (status r2);
  Alcotest.(check bool) "warm result identical" true
    (normalize (field "result" r1) = normalize (field "result" r2));
  let memo = Core.Flow.Memo.stats (S.ctx server).H.memo in
  Alcotest.(check bool) "synth cache hit" true
    (memo.Core.Flow.Memo.synth_hits >= 1);
  Alcotest.(check bool) "layout cache hit" true
    (memo.Core.Flow.Memo.layout_hits >= 1)

let test_identity_with_one_shot () =
  (* The served response and a one-shot execution must carry the same
     payload (the CLI --json path calls the same [Handlers.run_job]). *)
  let server = S.create ~config:quick_config () in
  let served = one server (design_line ~id:9 "mux21") in
  let ctx =
    { (H.default_ctx ()) with H.max_timeout_ms = 20_000.; sleep = (fun _ -> ()) }
  in
  let params =
    {
      P.source = P.Benchmark "mux21";
      engine = P.Engine_exact;
      timeout_ms = None;
      conflict_budget = None;
      rewrite = true;
      half_adders = true;
      equivalence = true;
      library = true;
      chaos = None;
    }
  in
  let one_shot = H.run_job ctx ~id:(J.Num 9.) (P.Design params) in
  Alcotest.(check string) "served = one-shot"
    (J.to_string (normalize one_shot))
    (J.to_string (normalize served))

(* --- server: fault isolation --------------------------------------------- *)

let test_chaos_raise_isolated () =
  let server = S.create ~config:quick_config () in
  let rs =
    all server
      {|{"fictionette-serve":1,"kind":"batch","id":"b","jobs":[{"kind":"design","benchmark":"c17","id":1},{"kind":"design","benchmark":"c17","id":2,"chaos":"raise"},{"kind":"simulate","gate":"xor2","id":3}]}|}
  in
  (match rs with
  | [ summary; r1; r2; r3 ] ->
      Alcotest.(check string) "batch summary ok" "ok" (status summary);
      Alcotest.(check string) "sibling 1 ok" "ok" (status r1);
      Alcotest.(check string) "chaos job errors" "error" (status r2);
      Alcotest.(check string) "crash kind" "crash" (error_kind r2);
      Alcotest.(check string) "sibling 3 ok" "ok" (status r3)
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs));
  let r = one server {|{"fictionette-serve":1,"kind":"ping"}|} in
  Alcotest.(check string) "loop survived the crash" "ok" (status r)

let test_chaos_cancel_is_budget_error () =
  let server = S.create ~config:quick_config () in
  let r = one server (design_line ~extra:{|,"chaos":"cancel"|} "c17") in
  Alcotest.(check string) "cancelled errors" "error" (status r);
  Alcotest.(check string) "budget kind" "budget" (error_kind r);
  (match J.mem "error" r with
  | Some e ->
      Alcotest.(check bool) "reason cancelled" true
        (Option.bind (J.mem "reason" e) J.str = Some "cancelled")
  | None -> Alcotest.fail "no error object");
  (* Cancellation is not transient: no retry may have happened. *)
  Alcotest.(check bool) "no retries" true (J.mem "retries" r = None)

let test_poisoned_deadline_is_budget_error () =
  let server = S.create ~config:quick_config () in
  let r = one server (design_line ~extra:{|,"timeout_ms":0.001|} "c17") in
  Alcotest.(check string) "expired budget errors" "error" (status r);
  Alcotest.(check string) "budget kind" "budget" (error_kind r)

let test_retry_ladder_degrades () =
  (* conflict_budget 1 starves the exact engine; the ladder must retry
     on exact-with-fallback (which internally degrades to scalable) and
     answer ok with the degradations on record. *)
  let server = S.create ~config:quick_config () in
  let r =
    one server
      (design_line ~extra:{|,"engine":"exact","conflict_budget":1|} "c17")
  in
  Alcotest.(check string) "degraded but ok" "ok" (status r);
  Alcotest.(check bool) "retries recorded" true (field "retries" r = J.Num 1.);
  match field "degradation" r with
  | J.List (_ :: _ as steps) ->
      let texts = List.filter_map J.str steps in
      Alcotest.(check bool) "ladder step recorded" true
        (List.exists
           (fun s ->
             s = "retry 1: conflict budget on exact; degraded to \
                  exact-with-fallback")
           texts)
  | _ -> Alcotest.fail "no degradation list"

let test_admission_depth_shedding () =
  let server = S.create ~config:{ quick_config with S.max_batch = 1 } () in
  let rs =
    all server
      {|{"fictionette-serve":1,"kind":"batch","jobs":[{"kind":"simulate","gate":"wire","id":1},{"kind":"simulate","gate":"wire","id":2}]}|}
  in
  match rs with
  | [ _summary; r1; r2 ] ->
      Alcotest.(check string) "first admitted" "ok" (status r1);
      Alcotest.(check string) "second shed" "overloaded" (status r2);
      (match J.num (field "retry_after_ms" r2) with
      | Some ms -> Alcotest.(check bool) "retry hint positive" true (ms > 0.)
      | None -> Alcotest.fail "no retry_after_ms")
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_admission_budget_mass_shedding () =
  let server =
    S.create ~config:{ quick_config with S.max_budget_mass_ms = 1_000. } ()
  in
  let rs =
    all server
      {|{"fictionette-serve":1,"kind":"batch","jobs":[{"kind":"design","benchmark":"c17","timeout_ms":900,"id":1},{"kind":"design","benchmark":"c17","timeout_ms":900,"id":2}]}|}
  in
  match rs with
  | [ _summary; r1; r2 ] ->
      Alcotest.(check bool) "first admitted" true (status r1 <> "overloaded");
      Alcotest.(check string) "mass threshold sheds second" "overloaded"
        (status r2)
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_batch_job_errors_isolated () =
  (* A malformed job inside a batch gets its own structured error; its
     well-formed siblings still run. *)
  let server = S.create ~config:quick_config () in
  let rs =
    all server
      {|{"fictionette-serve":1,"kind":"batch","jobs":[{"kind":"design","id":1},{"kind":"simulate","gate":"and2","id":2},"not an object"]}|}
  in
  match rs with
  | [ _summary; r1; r2; r3 ] ->
      Alcotest.(check string) "malformed job errors" "error" (status r1);
      Alcotest.(check string) "sibling runs" "ok" (status r2);
      Alcotest.(check string) "non-object job errors" "error" (status r3)
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs)

let test_simulate_engine_selection () =
  let server = S.create ~config:quick_config () in
  let sim engine =
    one server
      (Printf.sprintf
         {|{"fictionette-serve":1,"kind":"simulate","gate":"or2"%s,"id":1}|}
         (match engine with
         | None -> ""
         | Some e -> Printf.sprintf {|,"engine":"%s"|} e))
  in
  (* Explicit engines are echoed with their exactness flag. *)
  let r = sim (Some "quicksim") in
  Alcotest.(check string) "quicksim ok" "ok" (status r);
  let result = field "result" r in
  Alcotest.(check bool) "engine echoed" true
    (J.str (field "engine" result) = Some "quicksim");
  Alcotest.(check bool) "flagged heuristic" true
    (J.bool_ (field "exact" result) = Some false);
  Alcotest.(check bool) "functional" true
    (J.bool_ (field "functional" result) = Some true);
  let r = sim (Some "exhaustive") in
  Alcotest.(check string) "exhaustive ok" "ok" (status r);
  Alcotest.(check bool) "flagged exact" true
    (J.bool_ (field "exact" (field "result" r)) = Some true);
  (* Default: the engine resolved when the server was created (pruned,
     exact, with FICTIONETTE_SIM_ENGINE unset). *)
  let r = sim None in
  Alcotest.(check string) "default ok" "ok" (status r);
  Alcotest.(check bool) "default exact" true
    (J.bool_ (field "exact" (field "result" r)) = Some true);
  (* Unknown engines are a structured invalid_request, not a crash. *)
  let r = sim (Some "annealer") in
  Alcotest.(check string) "unknown engine rejected" "error" (status r);
  Alcotest.(check bool) "invalid_request kind" true
    (J.str (field "kind" (field "error" r)) = Some "invalid_request")

let test_domain_job () =
  let server = S.create ~config:quick_config () in
  (* Gate sweep: exhaustive grid so the payload is fully deterministic. *)
  let r =
    one server
      {|{"fictionette-serve":1,"kind":"domain","gate":"or2","algorithm":"grid","steps":4,"id":1}|}
  in
  Alcotest.(check string) "gate domain ok" "ok" (status r);
  let result = field "result" r in
  Alcotest.(check bool) "algorithm echoed" true
    (J.str (field "algorithm" result) = Some "grid");
  Alcotest.(check bool) "grid evaluates everything" true
    (J.num (field "points_evaluated" result) = Some 16.
    && J.num (field "total_points" result) = Some 16.);
  (* Flood fill may evaluate fewer points, never more. *)
  let r =
    one server
      {|{"fictionette-serve":1,"kind":"domain","gate":"or2","algorithm":"ff","steps":4,"samples":4,"id":2}|}
  in
  Alcotest.(check string) "flood-fill ok" "ok" (status r);
  let result = field "result" r in
  (match (J.num (field "points_evaluated" result),
          J.num (field "total_points" result)) with
  | Some ev, Some total ->
      Alcotest.(check bool) "ff evaluates a subset" true (ev <= total)
  | _ -> Alcotest.fail "no point counts");
  (* Whole-layout sweep on the heuristic engine. *)
  let r =
    one server
      {|{"fictionette-serve":1,"kind":"domain","benchmark":"xor2","engine":"quicksim","steps":2,"id":3}|}
  in
  Alcotest.(check string) "layout domain ok" "ok" (status r);
  let result = field "result" r in
  Alcotest.(check bool) "heuristic flagged" true
    (J.bool_ (field "exact" result) = Some false);
  Alcotest.(check bool) "sites reported" true
    (match J.num (field "sites" result) with Some n -> n > 0. | None -> false);
  (* Exact engines refuse whole layouts past the site limit — a
     structured infeasible, not a crash. *)
  let r =
    one server
      {|{"fictionette-serve":1,"kind":"domain","benchmark":"xor2","engine":"pruned","steps":2,"id":4}|}
  in
  Alcotest.(check string) "exact refusal errors" "error" (status r);
  Alcotest.(check string) "infeasible kind" "infeasible" (error_kind r);
  (* Target validation. *)
  let r = one server {|{"fictionette-serve":1,"kind":"domain","id":5}|} in
  Alcotest.(check string) "missing target rejected" "error" (status r);
  Alcotest.(check string) "invalid_request kind" "invalid_request"
    (error_kind r);
  let r =
    one server
      {|{"fictionette-serve":1,"kind":"domain","gate":"or2","benchmark":"xor2","id":6}|}
  in
  Alcotest.(check string) "ambiguous target rejected" "error" (status r);
  Alcotest.(check string) "ambiguous is invalid_request" "invalid_request"
    (error_kind r)

(* --- server: lifecycle and stats ----------------------------------------- *)

let test_stats_and_shutdown () =
  let server = S.create ~config:quick_config () in
  ignore (S.handle_line server (design_line "c17"));
  ignore (S.handle_line server (design_line "c17"));
  ignore (S.handle_line server "garbage");
  let r = one server {|{"fictionette-serve":1,"kind":"stats","id":"s"}|} in
  Alcotest.(check string) "stats ok" "ok" (status r);
  let result = field "result" r in
  Alcotest.(check bool) "served counted" true
    (J.num (field "served" result) = Some 2.);
  Alcotest.(check bool) "protocol errors counted" true
    (J.num (field "protocol_errors" result) = Some 1.);
  (match J.mem "cache" result with
  | Some cache ->
      Alcotest.(check bool) "cache hit rate exposed" true
        (match J.num (field "synth_hit_rate" cache) with
        | Some rate -> rate > 0.
        | None -> false)
  | None -> Alcotest.fail "no cache stats");
  Alcotest.(check bool) "not stopping yet" false (S.stopping server);
  let r = one server {|{"fictionette-serve":1,"kind":"shutdown"}|} in
  Alcotest.(check string) "shutdown acked" "ok" (status r);
  Alcotest.(check bool) "stopping" true (S.stopping server)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "depth bomb" `Quick test_json_depth_bomb;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "versioning" `Quick test_protocol_version;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "malformed lines survive" `Quick
            test_malformed_lines_survive;
          Alcotest.test_case "worker death isolated" `Quick
            test_chaos_raise_isolated;
          Alcotest.test_case "mid-request cancellation" `Quick
            test_chaos_cancel_is_budget_error;
          Alcotest.test_case "poisoned deadline" `Quick
            test_poisoned_deadline_is_budget_error;
          Alcotest.test_case "batch job errors isolated" `Quick
            test_batch_job_errors_isolated;
        ] );
      ( "service",
        [
          Alcotest.test_case "design + cross-request cache" `Quick
            test_design_and_cache;
          Alcotest.test_case "served = one-shot" `Quick
            test_identity_with_one_shot;
          Alcotest.test_case "retry ladder degrades" `Quick
            test_retry_ladder_degrades;
          Alcotest.test_case "depth shedding" `Quick
            test_admission_depth_shedding;
          Alcotest.test_case "budget-mass shedding" `Quick
            test_admission_budget_mass_shedding;
          Alcotest.test_case "simulate engine selection" `Quick
            test_simulate_engine_selection;
          Alcotest.test_case "domain job" `Quick test_domain_job;
          Alcotest.test_case "stats + shutdown" `Quick test_stats_and_shutdown;
        ] );
    ]

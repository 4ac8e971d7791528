(** Job execution: budgets, the retry/degradation ladder, and total
    exception-to-structured-error conversion.

    {!run_job} is the single entry point for every admitted job — the
    server's batch dispatcher and the CLI's [--json] one-shot mode both
    call it, which is what guarantees the two emit byte-identical
    response schemas.

    Resilience contract:
    - each job runs under its own {!Core.Budget} derived from the
      request's [timeout_ms], clamped to the server-wide ceiling
      [max_timeout_ms]; the budget also carries the request's
      [conflict_budget] and (in chaos mode) the injected cancellation
      flag;
    - a {e transient} failure — the flow tripping on [Deadline] or
      [Conflicts], but never [Cancelled] — is retried under the wall
      clock still remaining to the request, after a capped exponential
      backoff ([backoff_base_ms * 2^attempt], capped at
      [backoff_cap_ms]), stepping down the engine ladder
      exact → exact-with-fallback → scalable; every step taken is
      recorded in the response's ["degradation"] field and counted in
      {!Metrics};
    - {e any} exception escaping a job (including injected
      [Chaos_raise] worker deaths) is converted to a structured
      [{"status":"error","error":{"kind":"crash",…}}] response —
      {!run_job} never raises. *)

type ctx = {
  memo : Core.Flow.Memo.t;
  metrics : Metrics.t;
  max_timeout_ms : float;
      (** Server-wide ceiling; also the default when a request gives no
          [timeout_ms]. *)
  max_retries : int;  (** Retries (not attempts) per job. *)
  backoff_base_ms : float;
  backoff_cap_ms : float;
  sleep : float -> unit;
      (** Backoff hook (seconds); injectable so tests and the bench can
          observe or skip real sleeping. *)
  sim_engine : Sidb.Bdl.engine option;
      (** Ground-state engine for simulate, domain and yield jobs whose
          request names none; [None] means exact [Pruned] for gates and
          the size-based auto-select of {!Core.Flow.domain_of_layout}
          for whole layouts. *)
}

val default_ctx : unit -> ctx
(** Fresh memo and metrics; 60 s ceiling, 2 retries, 10 ms base / 200 ms
    cap backoff, [Unix.sleepf]; [sim_engine] resolved once from
    FICTIONETTE_SIM_ENGINE ({!Sidb.Bdl.resolve_engine}). *)

val run_job : ctx -> id:Json.t -> Protocol.job -> Json.t
(** Execute one job to a complete response object (latency measured and
    recorded here).  Never raises. *)

type reason = Deadline | Conflicts | Cancelled

type t = {
  deadline : float option;
  conflicts : int option;
  cancelled : unit -> bool;
  clock : unit -> float;
}

let never () = false

let unlimited =
  {
    deadline = None;
    conflicts = None;
    cancelled = never;
    clock = Unix.gettimeofday;
  }

let of_seconds ?conflicts ?(cancelled = never) ?(clock = Unix.gettimeofday) s =
  (* The server derives child budgets arithmetically (shares, backoff
     subtractions); a NaN or negative duration would silently become a
     deadline that never trips — i.e. a hung request. *)
  if not (Float.is_finite s) || s < 0. then
    invalid_arg
      (Printf.sprintf
         "Sat.Budget.of_seconds: duration must be finite and non-negative \
          (got %g)"
         s);
  { deadline = Some (clock () +. s); conflicts; cancelled; clock }

let of_conflicts n = { unlimited with conflicts = Some n }
let with_conflicts conflicts b = { b with conflicts }
let without_deadline b = { b with deadline = None }
let is_unlimited b = b.deadline = None && b.conflicts = None

let remaining_s b = Option.map (fun d -> d -. b.clock ()) b.deadline

let remaining b =
  Option.map (fun d -> Float.max 0. (d -. b.clock ())) b.deadline

let expired b =
  match b.deadline with None -> false | Some d -> b.clock () > d

let check b =
  if b.cancelled () then Some Cancelled
  else if expired b then Some Deadline
  else None

let fraction f b =
  {
    b with
    deadline =
      Option.map
        (fun d ->
          let now = b.clock () in
          now +. (f *. max 0. (d -. now)))
        b.deadline;
    conflicts =
      Option.map
        (fun c -> max 1 (int_of_float (f *. float_of_int c)))
        b.conflicts;
  }

let reason_to_string = function
  | Deadline -> "deadline"
  | Conflicts -> "conflict budget"
  | Cancelled -> "cancelled"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let pp ppf b =
  let parts =
    (match remaining_s b with
    | Some s -> [ Printf.sprintf "%.2fs left" s ]
    | None -> [])
    @ (match b.conflicts with
      | Some c -> [ Printf.sprintf "%d conflicts" c ]
      | None -> [])
  in
  Format.pp_print_string ppf
    (match parts with [] -> "unlimited" | _ -> String.concat ", " parts)

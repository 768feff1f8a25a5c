module Metrics = Ncg_obs.Metrics
module Clock = Ncg_obs.Clock

exception Timed_out of string
exception Interrupted of int

let () =
  Printexc.register_printer (function
    | Timed_out reason -> Some (Printf.sprintf "Ncg_fault.Cancel.Timed_out(%s)" reason)
    | Interrupted s -> Some (Printf.sprintf "Ncg_fault.Cancel.Interrupted(signal %d)" s)
    | _ -> None)

let move_steps = Metrics.register "dynamics.move_steps"
let step_budget_hits = Metrics.register "dynamics.step_budget_hits"

type control = {
  deadline_ns : int64; (* absolute Clock.now_ns deadline; 0 = none *)
  cancel : bool Atomic.t option;
  mutable limit : int; (* checkpoints allowed; 0 = unlimited *)
  mutable used : int; (* checkpoints made under [limit], trips included *)
}

let key : control option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* -1 = no shutdown requested; otherwise the signal number. *)
let shutdown = Atomic.make min_int

let request_shutdown s = Atomic.set shutdown s
let reset_shutdown () = Atomic.set shutdown min_int

let shutdown_requested () =
  match Atomic.get shutdown with s when s = min_int -> None | s -> Some s

let checkpoint () =
  (match Atomic.get shutdown with
  | s when s <> min_int -> raise (Interrupted s)
  | _ -> ());
  match Domain.DLS.get key with
  | None -> ()
  | Some c ->
      (match c.cancel with
      | Some flag when Atomic.get flag -> raise (Timed_out "watchdog")
      | _ -> ());
      if c.limit > 0 then begin
        c.used <- c.used + 1;
        if c.used > c.limit then begin
          Metrics.incr step_budget_hits;
          raise (Timed_out "step budget exhausted")
        end
      end;
      if c.deadline_ns <> 0L && Int64.compare (Clock.now_ns ()) c.deadline_ns > 0
      then raise (Timed_out "deadline")

let with_control ?timeout_ns ?cancel f =
  let deadline_ns =
    match timeout_ns with
    | None -> 0L
    | Some ns -> Int64.add (Clock.now_ns ()) ns
  in
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some { deadline_ns; cancel; limit = 0; used = 0 });
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let rec with_step_budget n f =
  if n <= 0 then f ()
  else
    match Domain.DLS.get key with
    | Some c ->
        (* The budget's steps reach [dynamics.move_steps] once, on exit,
           rather than one counter write per checkpoint. *)
        let limit = c.limit and used = c.used in
        c.limit <- n;
        c.used <- 0;
        Fun.protect
          ~finally:(fun () ->
            Metrics.add move_steps c.used;
            c.limit <- limit;
            c.used <- used)
          f
    | None ->
        (* No enclosing task control: install a bare one so the budget
           has somewhere to live (e.g. direct Dynamics runs). *)
        with_control (fun () -> with_step_budget n f)

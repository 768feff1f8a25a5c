module Splitmix64 = Ncg_prng.Splitmix64
module Registry = Ncg_obs.Registry

type site = int

let registry = Registry.create "Inject.site" ~capacity:64
let site name = Registry.register registry name
let site_name id = Registry.name registry id
let sites () = Registry.names registry
let find_site name = Registry.find registry name

let bfs = site "bfs.traverse"
let best_response = site "best_response.compute"
let dynamics_round = site "dynamics.round"
let sweep_cell = site "sweep.cell"
let record_log_append = site "record_log.append"

(* Plans *)

type action = Raise | Delay_ns of int64 | Short_write of int
type trigger = Always | Nth of int | Every of int | Prob of float
type rule = { site : string; action : action; trigger : trigger }
type plan = { seed : int; rules : rule list }

exception Fault of { site : string; action : string }

let () =
  Printexc.register_printer (function
    | Fault { site; action } ->
        Some (Printf.sprintf "Ncg_fault.Inject.Fault(site=%s, action=%s)" site action)
    | _ -> None)

let action_to_string = function
  | Raise -> "raise"
  | Delay_ns ns -> Printf.sprintf "delay:%g" (Int64.to_float ns /. 1e6)
  | Short_write n -> Printf.sprintf "short:%d" n

let trigger_to_string = function
  | Always -> "always"
  | Nth n -> Printf.sprintf "nth:%d" n
  | Every n -> Printf.sprintf "every:%d" n
  | Prob p -> Printf.sprintf "p:%g" p

let rule_to_string r =
  let rule = Printf.sprintf "%s=%s" r.site (action_to_string r.action) in
  match r.trigger with
  | Always -> rule
  | t -> rule ^ "@" ^ trigger_to_string t

let plan_to_string p = String.concat "," (List.map rule_to_string p.rules)

let parse_rule spec =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "%S: %s" spec m)) fmt in
  let int_of s what =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> fail "%s %S is not an integer" what s
  in
  let float_of s what =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> fail "%s %S is not a number" what s
  in
  let* site, rest =
    match String.index_opt spec '=' with
    | Some i ->
        Ok
          ( String.sub spec 0 i,
            String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> fail "expected SITE=ACTION[@TRIGGER]"
  in
  let* () =
    match find_site site with
    | Some _ -> Ok ()
    | None ->
        fail "unknown fault site %S (known: %s)" site
          (String.concat ", " (sites ()))
  in
  let action_s, quals =
    match String.split_on_char '@' rest with
    | [] -> (rest, [])
    | a :: qs -> (a, qs)
  in
  let* action =
    match String.split_on_char ':' action_s with
    | [ "raise" ] -> Ok Raise
    | [ "delay"; ms ] ->
        let* ms = float_of ms "delay" in
        if ms < 0. then fail "delay must be >= 0 ms"
        else Ok (Delay_ns (Int64.of_float (ms *. 1e6)))
    | [ "short"; bytes ] ->
        let* b = int_of bytes "short" in
        if b < 0 then fail "short must be >= 0 bytes" else Ok (Short_write b)
    | _ -> fail "unknown action %S (raise | delay:MS | short:BYTES)" action_s
  in
  let* trigger =
    match quals with
    | [] -> Ok Always
    | [ q ] -> (
        match String.split_on_char ':' q with
        | [ "always" ] -> Ok Always
        | [ "nth"; n ] ->
            let* n = int_of n "nth" in
            if n < 1 then fail "nth must be >= 1" else Ok (Nth n)
        | [ "every"; n ] ->
            let* n = int_of n "every" in
            if n < 1 then fail "every must be >= 1" else Ok (Every n)
        | [ "p"; p ] ->
            let* p = float_of p "p" in
            if p < 0. || p > 1. then fail "p must be in [0, 1]" else Ok (Prob p)
        | _ -> fail "unknown trigger %S (always | nth:N | every:N | p:P)" q)
    | _ -> fail "at most one @TRIGGER per rule"
  in
  Ok { site; action; trigger }

let parse_plan ~seed spec =
  let specs =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if specs = [] then Error "empty fault plan"
  else
    let rec go acc = function
      | [] -> Ok { seed; rules = List.rev acc }
      | s :: rest -> (
          match parse_rule s with
          | Ok r -> go (r :: acc) rest
          | Error _ as e -> e)
    in
    go [] specs

(* Installation is process-wide; arming is domain-local. *)

let current : plan option Atomic.t = Atomic.make None
let install p = Atomic.set current (Some p)
let clear () = Atomic.set current None
let installed () = Atomic.get current

type rule_state = {
  action : action;
  trigger : trigger;
  mutable hits : int;
  rng : Splitmix64.t;
}

let armed_key : rule_state list array option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Mix (plan seed, site, rule index, scope) into one 64-bit stream seed.
   Any deterministic injective-enough mix works; scheduling never feeds
   into it. *)
let derive_seed ~seed ~site ~rule_ix ~scope =
  let sm = Splitmix64.create (Int64.of_int seed) in
  let a = Splitmix64.next sm in
  let b = Splitmix64.next sm in
  Int64.add a
    (Int64.add
       (Int64.mul (fnv1a site) (Int64.logor b 1L))
       (Int64.add
          (Int64.mul (Int64.of_int rule_ix) 0x9E3779B97F4A7C15L)
          (Int64.mul (Int64.of_int scope) 0xBF58476D1CE4E5B9L)))

let disarm () = Domain.DLS.set armed_key None

let arm ~scope =
  match Atomic.get current with
  | None -> disarm ()
  | Some plan ->
      let per_site = Array.make (Registry.capacity registry) [] in
      List.iteri
        (fun rule_ix r ->
          match find_site r.site with
          | None -> ()
          | Some id ->
              let rng =
                Splitmix64.create
                  (derive_seed ~seed:plan.seed ~site:r.site ~rule_ix ~scope)
              in
              per_site.(id) <-
                per_site.(id)
                @ [
                    { action = r.action; trigger = r.trigger; hits = 0; rng };
                  ])
        plan.rules;
      Domain.DLS.set armed_key (Some per_site)

let armed () = Domain.DLS.get armed_key <> None

let unit_float bits = Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1.p-53

let fires st =
  st.hits <- st.hits + 1;
  match st.trigger with
  | Always -> true
  | Nth n -> st.hits = n
  | Every n -> st.hits mod n = 0
  | Prob p -> unit_float (Splitmix64.next st.rng) < p

let fault id action = Fault { site = site_name id; action }

let hit id =
  match Domain.DLS.get armed_key with
  | None -> ()
  | Some per_site ->
      List.iter
        (fun st ->
          if fires st then
            match st.action with
            | Raise -> raise (fault id "raise")
            | Delay_ns ns -> Unix.sleepf (Int64.to_float ns *. 1e-9)
            | Short_write _ -> ())
        per_site.(id)

let short_write id ~len =
  match Domain.DLS.get armed_key with
  | None -> None
  | Some per_site ->
      let cut = ref None in
      List.iter
        (fun st ->
          if fires st then
            match st.action with
            | Raise -> raise (fault id "raise")
            | Delay_ns ns -> Unix.sleepf (Int64.to_float ns *. 1e-9)
            | Short_write n ->
                if !cut = None then cut := Some (max 0 (min n (len - 1))))
        per_site.(id);
      !cut

let short_write_fault id = fault id "short_write"

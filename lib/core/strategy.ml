module Graph = Ncg_graph.Graph
module Rng = Ncg_prng.Rng

type t = { n : int; owned : int list array }

let check_player n u =
  if u < 0 || u >= n then invalid_arg "Strategy: player out of range"

let normalize n u targets =
  let targets = List.sort_uniq compare targets in
  List.iter
    (fun v ->
      check_player n v;
      if v = u then invalid_arg "Strategy: a player cannot buy a self edge")
    targets;
  targets

let create ~n =
  if n < 0 then invalid_arg "Strategy.create: negative n";
  { n; owned = Array.make n [] }

let of_buys ~n buys =
  let t = create ~n in
  let acc = Array.make n [] in
  List.iter
    (fun (u, v) ->
      check_player n u;
      acc.(u) <- v :: acc.(u))
    buys;
  { t with owned = Array.mapi (fun u l -> normalize n u l) acc }

let n_players t = t.n

let owned t u =
  check_player t.n u;
  t.owned.(u)

let owns t u v = List.mem v (owned t u)
let bought_count t u = List.length (owned t u)
let total_bought t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.owned

let with_owned t u targets =
  check_player t.n u;
  let owned = Array.copy t.owned in
  owned.(u) <- normalize t.n u targets;
  { t with owned }

let in_buyers t g u =
  check_player t.n u;
  List.rev
    (Graph.fold_neighbors
       (fun v acc -> if List.mem u t.owned.(v) then v :: acc else acc)
       g u [])

let graph t =
  let edges = ref [] in
  Array.iteri
    (fun u targets -> List.iter (fun v -> edges := (u, v) :: !edges) targets)
    t.owned;
  Graph.of_edges ~n:t.n !edges

let recentre t adj u =
  let g = Graph.borrow adj in
  let star = List.sort_uniq compare (List.rev_append (owned t u) (in_buyers t g u)) in
  Graph.set_star adj u (Array.of_list star)

let random_orientation rng g =
  let buys =
    List.map
      (fun (u, v) -> if Rng.bool rng then (u, v) else (v, u))
      (Graph.edges g)
  in
  of_buys ~n:(Graph.order g) buys

let equal a b = a.n = b.n && a.owned = b.owned

let to_string t =
  let buf = Buffer.create (16 * t.n) in
  Buffer.add_string buf (string_of_int t.n);
  Buffer.add_char buf '\n';
  Array.iter
    (fun targets ->
      Buffer.add_string buf (String.concat " " (List.map string_of_int targets));
      Buffer.add_char buf '\n')
    t.owned;
  Buffer.contents buf

let of_string s =
  match String.split_on_char '\n' s with
  | [] | [ "" ] -> invalid_arg "Strategy.of_string: empty input"
  | header :: body -> begin
      match int_of_string_opt (String.trim header) with
      | None -> invalid_arg "Strategy.of_string: bad player count"
      | Some n ->
          if n < 0 then invalid_arg "Strategy.of_string: negative player count";
          (* Exactly n player lines, then only blank trailing lines. *)
          let rec split_body i acc = function
            | rest when i = n ->
                if List.exists (fun l -> String.trim l <> "") rest then
                  invalid_arg "Strategy.of_string: wrong number of player lines";
                List.rev acc
            | [] -> invalid_arg "Strategy.of_string: wrong number of player lines"
            | line :: rest -> split_body (i + 1) (line :: acc) rest
          in
          let player_lines = split_body 0 [] body in
          let parse_line u line =
            String.split_on_char ' ' (String.trim line)
            |> List.filter (fun tok -> tok <> "")
            |> List.map (fun tok ->
                   match int_of_string_opt tok with
                   | Some v -> (u, v)
                   | None -> invalid_arg "Strategy.of_string: bad target")
          in
          of_buys ~n (List.concat (List.mapi parse_line player_lines))
    end

let to_key t =
  let buf = Buffer.create (8 * t.n) in
  Array.iter
    (fun targets ->
      List.iter
        (fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ',')
        targets;
      Buffer.add_char buf ';')
    t.owned;
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun u targets ->
      Format.fprintf ppf "%d -> {%a}@," u
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_int)
        targets)
    t.owned;
  Format.fprintf ppf "@]"

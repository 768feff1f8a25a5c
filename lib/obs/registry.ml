type t = {
  what : string;
  names : string array;
  slots : (string, int) Hashtbl.t;
  mutable count : int;
}

let create what ~capacity =
  { what; names = Array.make capacity ""; slots = Hashtbl.create capacity; count = 0 }

(* The one writer. Checking the domain here, at run time, is what makes
   the unsynchronized fields above safe to read from every domain. *)
let register t name =
  if name = "" then invalid_arg (t.what ^ ": empty name");
  if not (Domain.is_main_domain ()) then
    invalid_arg
      (Printf.sprintf "%s %S: register at init time from the main domain only"
         t.what name);
  match Hashtbl.find_opt t.slots name with
  | Some i -> i
  | None ->
      if t.count >= Array.length t.names then
        invalid_arg
          (Printf.sprintf "%s %S: registry full (%d slots)" t.what name
             (Array.length t.names));
      let i = t.count in
      t.names.(i) <- name;
      Hashtbl.replace t.slots name i;
      t.count <- i + 1;
      i

let name t i = t.names.(i)
let names t = List.init t.count (fun i -> t.names.(i))
let find t name = Hashtbl.find_opt t.slots name
let count t = t.count
let capacity t = Array.length t.names

(* Empty [tbl] into a list: registered names in registration order, then
   the names of [rest] in input order, each at most once — so snapshots
   from one binary always come out in the same shape. *)
let drain t tbl rest =
  let out = ref [] in
  let emit k =
    match Hashtbl.find_opt tbl k with
    | Some v ->
        out := (k, v) :: !out;
        Hashtbl.remove tbl k
    | None -> ()
  in
  for i = 0 to t.count - 1 do
    emit t.names.(i)
  done;
  List.iter (fun (k, _) -> emit k) rest;
  List.rev !out

let merge t ~combine a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k
        (match Hashtbl.find_opt tbl k with Some p -> combine p v | None -> v))
    b;
  drain t tbl (a @ b)

let expand t ~default fields =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fields;
  for i = 0 to t.count - 1 do
    if not (Hashtbl.mem tbl t.names.(i)) then
      Hashtbl.replace tbl t.names.(i) (default ())
  done;
  drain t tbl fields

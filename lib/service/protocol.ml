module Json = Ncg_obs.Json

type addr = Unix_sock of string | Tcp of string * int

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Ok (Unix_sock s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "unix" ->
          if rest = "" then Error "unix: address needs a path"
          else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp: address needs HOST:PORT"
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "tcp: bad port %S" port)))
      | _ ->
          (* a bare relative path containing ':' is ambiguous; insist on
             an explicit scheme there *)
          Error (Printf.sprintf "unknown address scheme %S (use unix: or tcp:)" kind))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type request =
  | Hello of { client : string; worker : bool }
  | Submit of { spec : Ncg.Sweep_spec.t; deadline_ms : int option }
  | Status of { job : int }
  | Results of { job : int }
  | Lease of { worker : string }
  | Complete of { worker : string; task : int; result : Json.t }
  | Fail of { worker : string; task : int; error : string }
  | Ping of { worker : string }
  | Cancel of { job : int }
  | Subscribe
  | Stats

let request_schema = Ncg_obs.Schema.service_request
let request_schema_v1 = Ncg_obs.Schema.service_request_v1
let response_schema = Ncg_obs.Schema.service_response

let request_to_json r =
  let fields =
    match r with
    | Hello { client; worker } ->
        [ ("verb", Json.String "hello"); ("client", Json.String client) ]
        @ if worker then [ ("worker", Json.Bool true) ] else []
    | Submit { spec; deadline_ms } ->
        [ ("verb", Json.String "submit"); ("spec", Ncg.Sweep_spec.to_json spec) ]
        @ (match deadline_ms with
          | None -> []
          | Some ms -> [ ("deadline_ms", Json.Int ms) ])
    | Status { job } -> [ ("verb", Json.String "status"); ("job", Json.Int job) ]
    | Results { job } ->
        [ ("verb", Json.String "results"); ("job", Json.Int job) ]
    | Lease { worker } ->
        [ ("verb", Json.String "lease"); ("worker", Json.String worker) ]
    | Complete { worker; task; result } ->
        [
          ("verb", Json.String "complete");
          ("worker", Json.String worker);
          ("task", Json.Int task);
          ("result", result);
        ]
    | Fail { worker; task; error } ->
        [
          ("verb", Json.String "fail");
          ("worker", Json.String worker);
          ("task", Json.Int task);
          ("error", Json.String error);
        ]
    | Ping { worker } ->
        [ ("verb", Json.String "ping"); ("worker", Json.String worker) ]
    | Cancel { job } -> [ ("verb", Json.String "cancel"); ("job", Json.Int job) ]
    | Subscribe -> [ ("verb", Json.String "subscribe") ]
    | Stats -> [ ("verb", Json.String "stats") ]
  in
  Json.Obj (("schema", Json.String request_schema) :: fields)

let request_of_json =
  Json.decode ~what:"request" (fun j ->
      let str name = Json.field name Json.string j in
      let int name = Json.field name Json.int j in
      let schema = str "schema" in
      (* v1 requests are a strict subset: same encodings, fewer verbs —
         v1 clients and workers keep working unchanged. *)
      if not (String.equal schema request_schema || String.equal schema request_schema_v1)
      then Json.fail "unsupported schema %S" schema;
      match str "verb" with
      | "hello" ->
          let worker = Json.opt (Json.field "worker" Json.bool) j in
          Hello { client = str "client"; worker = Option.value worker ~default:false }
      | "submit" ->
          let positive d =
            let ms = Json.int d in
            if ms <= 0 then Json.fail "must be a positive integer";
            ms
          in
          Submit
            {
              spec = Json.field "spec" (Json.nested Ncg.Sweep_spec.of_json) j;
              deadline_ms = Json.field_opt "deadline_ms" positive j;
            }
      | "status" -> Status { job = int "job" }
      | "results" -> Results { job = int "job" }
      | "lease" -> Lease { worker = str "worker" }
      | "complete" ->
          let result = Json.field "result" Fun.id j in
          Complete { worker = str "worker"; task = int "task"; result }
      | "fail" -> Fail { worker = str "worker"; task = int "task"; error = str "error" }
      | "ping" -> Ping { worker = str "worker" }
      | "cancel" -> Cancel { job = int "job" }
      | "subscribe" -> Subscribe
      | "stats" -> Stats
      | other -> Json.fail "unknown verb %S" other)

type response =
  | Resp_ok of (string * Json.t) list
  | Resp_error of string

let response_to_json = function
  | Resp_ok fields ->
      Json.Obj
        (("schema", Json.String response_schema) :: ("ok", Json.Bool true)
        :: fields)
  | Resp_error msg ->
      Json.Obj
        [
          ("schema", Json.String response_schema);
          ("ok", Json.Bool false);
          ("error", Json.String msg);
        ]

let response_of_json =
  Json.decode ~what:"response" (fun j ->
      let schema = Json.field "schema" Json.string j in
      if not (String.equal schema response_schema) then
        Json.fail "unsupported schema %S" schema;
      if Json.field "ok" Json.bool j then
        Resp_ok
          (List.filter
             (fun (name, _) -> not (String.equal name "schema" || String.equal name "ok"))
             (Json.assoc Fun.id j))
      else Resp_error (Json.field "error" Json.string j))

let send_line oc json =
  output_string oc (Json.to_string json);
  output_char oc '\n';
  flush oc

let recv_line ic =
  match input_line ic with
  | exception End_of_file -> Ok None
  | line -> (
      match Json.of_string line with
      | Ok j -> Ok (Some j)
      | Error msg -> Error (Printf.sprintf "bad line: %s" msg))

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "getaddrinfo", host)))
      in
      Unix.ADDR_INET (ip, port)

let connect addr =
  let domain =
    match addr with
    | Unix_sock _ -> Unix.PF_UNIX
    | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

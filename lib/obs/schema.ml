(* The central registry of ncg.* schema tags.

   Every versioned artifact the repo emits or parses carries a schema
   tag of the shape "ncg.<dotted.name>/<version>". Before this module,
   each writer and reader spelled its tag as a local string literal —
   so bumping a version meant hunting every literal down, and an emit
   site could silently skew from its parse site. Now the tag lives here
   exactly once and both sides reference it by name; the lint rule R1
   (lib/lint) rejects any exact schema-shaped string literal outside
   this file, so the registry cannot rot. A tag leaves the registry once
   no reader or writer references it. *)

(* lib/obs *)
let obs_timeseries = "ncg.obs.timeseries/1"
let obs_probes = "ncg.obs.probes/1"

(* lib/store *)
let store_cell = "ncg.store.cell/6"

(* lib/core *)
let experiment_telemetry = "ncg.experiment.telemetry/7"

(* lib/lint *)
let lint_report = "ncg.lint.report/3"

(* bin/ncg_bench_diff *)
let bench_baseline = "ncg.bench.baseline/1"

let all =
  [
    obs_timeseries;
    obs_probes;
    store_cell;
    experiment_telemetry;
    lint_report;
    bench_baseline;
  ]

(* A tag is "schema-shaped" when it is exactly ncg.<seg>(.<seg>)*/<digits>
   with lowercase [a-z0-9_] segments — the shape R1 polices. Kept here so
   the lint rule and the registry can never disagree on what counts. *)
let is_schema_shaped s =
  let n = String.length s in
  let seg_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  let digit c = c >= '0' && c <= '9' in
  let rec segs i saw_dot =
    (* i points at the start of a segment; consume [a-z0-9_]+ then '.' or '/'. *)
    if i >= n then false
    else
      let j = ref i in
      while !j < n && seg_char s.[!j] do
        incr j
      done;
      if !j = i then false
      else if !j < n && s.[!j] = '.' then segs (!j + 1) true
      else if !j < n && s.[!j] = '/' then
        saw_dot && !j + 1 < n
        && (let ok = ref true in
            for k = !j + 1 to n - 1 do
              if not (digit s.[k]) then ok := false
            done;
            !ok)
      else false
  in
  n > 4 && String.sub s 0 4 = "ncg." && segs 4 false

let registered s = List.mem s all

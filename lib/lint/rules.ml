type id = D1 | D2 | D3 | D4 | P1 | P2 | A1 | S1 | R1 | L1 | L2

let all = [ D1; D2; D3; D4; P1; P2; A1; S1; R1; L1; L2 ]

let to_string = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | P1 -> "P1"
  | P2 -> "P2"
  | A1 -> "A1"
  | S1 -> "S1"
  | R1 -> "R1"
  | L1 -> "L1"
  | L2 -> "L2"

let of_string = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "D4" -> Some D4
  | "P1" -> Some P1
  | "P2" -> Some P2
  | "A1" -> Some A1
  | "S1" -> Some S1
  | "R1" -> Some R1
  | "L1" -> Some L1
  | "L2" -> Some L2
  | _ -> None

let title = function
  | D1 -> "stdlib randomness outside lib/prng"
  | D2 -> "wall-clock read outside lib/obs"
  | D3 -> "hash-order iteration"
  | D4 -> "lossy float formatting"
  | P1 -> "unsynchronized top-level mutable state"
  | P2 -> "cross-domain capture of unsynchronized mutable state"
  | A1 -> "bare output channel for artifact writes"
  | S1 -> "borrowed scratch view escapes its lender"
  | R1 -> "schema literal outside the registry"
  | L1 -> "malformed lint annotation"
  | L2 -> "stale lint suppression"

let contract = function
  | D1 ->
      "All randomness flows through Ncg_prng's SplitMix64 seed streams; \
       Stdlib.Random has process-global state and an unseeded self_init, either \
       of which breaks bit-identical sweeps."
  | D2 ->
      "Wall-clock reads live behind Ncg_obs.Clock (monotonic); scattered \
       Unix.gettimeofday / Unix.time / Sys.time calls make timings \
       incomparable and leak nondeterminism into outputs."
  | D3 ->
      "Hashtbl.iter/fold visit keys in hash-bucket order, which is not part of \
       any contract; an order change (hash function, randomized hashing, \
       resize policy) would silently reorder telemetry, CSV and JSON output."
  | D4 ->
      "Serialized floats must round-trip: string_of_float and bare %f truncate \
       (12 digits / 6 digits) and lose NaN/infinity, so crash/resume replays \
       would diverge byte-wise from fresh runs."
  | P1 ->
      "Libraries run on multiple domains under the Executor; top-level \
       mutable state must be Atomic.t, Domain.DLS, mutex-guarded, or \
       explicitly marked [@lint.domain_local] with a written justification."
  | P2 ->
      "A closure handed to a fan-out point (Executor.map, Domain.spawn) runs \
       on another domain: any plain mutable state it captures from an \
       enclosing scope (ref, array, Hashtbl, Buffer, Bytes, Queue, Stack) is \
       a data race unless it is Atomic, domain-local, or provably guarded — \
       and a guard the checker cannot see must be written down in a \
       suppression."
  | A1 ->
      "Artifact files are written via the atomic temp+fsync+rename helpers in \
       lib/obs and lib/store; a bare open_out can leave a torn file behind on \
       crash, breaking the crash/resume byte-identity contract."
  | S1 ->
      "Bfs.dist_array / Bfs.visit_order, Ball_view.borrow, Graph.borrow and \
       the Ncg.Workspace pools lend views into buffers that the next run or \
       move overwrites \
       (docs/PERFORMANCE.md): a view stored into a ref/field/container, \
       packed into a returned value, captured by an escaping closure, or \
       bound at module level outlives its loan and will be read after it is \
       clobbered."
  | R1 ->
      "Every ncg.*/N schema tag, in emit and parse position alike, comes \
       from the central registry (Ncg_obs.Schema); a local literal can skew \
       from its counterpart across a version bump, silently producing \
       artifacts nothing can read back."
  | L1 ->
      "[@lint.allow \"RULE\" \"why\"] must name a known rule and carry a \
       non-empty justification; [@lint.domain_local \"why\"] likewise — \
       suppressions are part of the audit trail."
  | L2 ->
      "A suppression whose rule no longer fires anywhere in its scope is \
       dead weight that hides future violations at the same site; the audit trail stays honest only if \
       suppressions are removed when the code they excused is gone."

let hint = function
  | D1 -> "draw from an Ncg_prng.Rng stream threaded from the experiment seed"
  | D2 -> "use Ncg_obs.Clock.now_ns / Clock.elapsed_ns"
  | D3 ->
      "iterate sorted keys, or sort the collected result before it escapes \
       (then suppress with a justification)"
  | D4 -> "use Ncg_obs.Json.Float, or an explicit-precision format like %.17g/%g"
  | P1 ->
      "wrap in Atomic.make / Domain.DLS.new_key / Mutex.create, or annotate \
       [@@lint.domain_local \"why this is safe\"]"
  | P2 ->
      "make the captured state Atomic (or per-chunk, merged after the join); \
       if a mutex really guards every access, say so in a [@lint.allow \"P2\"] \
       justification"
  | A1 -> "use Ncg_obs.Json.to_file, Ncg_obs.Atomic_file.write, or lib/store"
  | S1 ->
      "copy before it escapes (Array.copy / Array.sub), or restructure so \
       the view is consumed inside the lending call"
  | R1 -> "name the tag in lib/obs/schema.ml and reference Ncg_obs.Schema.<name>"
  | L1 -> "write [@lint.allow \"RULE\" \"justification\"] with both parts present"
  | L2 -> "delete the suppression (or fix the scope if it drifted off its target)"

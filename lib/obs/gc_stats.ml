(* GC telemetry from Gc.quick_stat + Gc.counters deltas.

   Two sources with different scopes, deliberately combined:
   - Gc.counters () is domain-local (this domain's allocation counters),
     so word deltas captured inside the domain that runs a sweep cell
     measure exactly that cell's allocations. allocated_words
     (minor + major - promoted) is deterministic for deterministic work:
     promotion timing varies, but every promoted word is counted in both
     promoted and major, so it cancels.
   - Gc.quick_stat collection counts are program-wide (with per-domain
     buffer slack), so minor/major collection deltas are telemetry only:
     they say how much GC churn happened during the window, not a
     reproducible number.

   capture flushes the minor heap (Gc.minor) before reading. Without the
   flush, the runtime's in-progress young-area accounting is quantized at
   minor-heap-chunk granularity and word deltas for identical work shift
   by whole multiples of the chunk size (~115k words observed) depending
   on domain placement; flushing first makes the counters exact, at the
   cost of one (cheap: mostly-empty heap) minor collection per capture. *)

type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

let zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
  }

let capture () =
  Gc.minor ();
  let minor_words, promoted_words, major_words = Gc.counters () in
  let q = Gc.quick_stat () in
  {
    minor_words;
    promoted_words;
    major_words;
    minor_collections = q.Gc.minor_collections;
    major_collections = q.Gc.major_collections;
    compactions = q.Gc.compactions;
  }

let diff ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
  }

let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    compactions = a.compactions + b.compactions;
  }

let total = List.fold_left add zero
let allocated_words s = s.minor_words +. s.major_words -. s.promoted_words

let measure f =
  let before = capture () in
  let result = f () in
  (result, diff ~before ~after:(capture ()))

let to_json s =
  Json.Obj
    [
      ("allocated_words", Json.Float (allocated_words s));
      ("minor_words", Json.Float s.minor_words);
      ("promoted_words", Json.Float s.promoted_words);
      ("major_words", Json.Float s.major_words);
      ("minor_collections", Json.Int s.minor_collections);
      ("major_collections", Json.Int s.major_collections);
      ("compactions", Json.Int s.compactions);
    ]

(* Inverse of to_json over the raw fields (allocated_words is derived
   and ignored on read). Float serialization round-trips exactly, so
   decode (encode s) = s; [null] (a NaN that slipped into a file) reads
   back as [nan]. *)
let of_json =
  Json.decode ~what:"Gc_stats.of_json" (fun j ->
      let number name = Json.field name Json.number_or_null j in
      let int name = Json.field name Json.int j in
      {
        minor_words = number "minor_words";
        promoted_words = number "promoted_words";
        major_words = number "major_words";
        minor_collections = int "minor_collections";
        major_collections = int "major_collections";
        compactions = int "compactions";
      })

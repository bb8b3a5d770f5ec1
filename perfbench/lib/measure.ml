(* Host-time measurement: a monotonic nanosecond clock, quantiles, and
   repeated-sample micro rows. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Linear-interpolation quantile (the "R-7" rule) of an unsorted
   sample; [nan] on an empty one. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* A growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let quantile t p = quantile (to_array t) p
end

(* One micro row: the operation is run in batches; each batch is one
   sample of host ns per operation and minor-heap words per operation.
   The batch size is calibrated so a sample lasts about 1 ms. *)
type row = {
  r_name : string;
  r_ns_p50 : float;
  r_ns_q1 : float;
  r_ns_q3 : float;
  r_words : float;  (** minor words per operation, median over samples *)
  r_samples : int;
  r_batch : int;
}

let micro_samples = 21
let sample_ns = 1_000_000

let micro ?(reset = fun () -> ()) name f =
  let samples = micro_samples in
  reset ();
  let t0 = now_ns () in
  let calib = ref 0 in
  while now_ns () - t0 < sample_ns / 4 do
    f ();
    incr calib
  done;
  let per_op = float_of_int (now_ns () - t0) /. float_of_int (max 1 !calib) in
  let batch = max 1 (int_of_float (float_of_int sample_ns /. Float.max per_op 1.0)) in
  let ns = Array.make samples 0.0 and words = Array.make samples 0.0 in
  for s = 0 to samples - 1 do
    reset ();
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    ns.(s) <- float_of_int (t1 - t0) /. float_of_int batch;
    words.(s) <- (w1 -. w0) /. float_of_int batch
  done;
  {
    r_name = name;
    r_ns_p50 = median ns;
    r_ns_q1 = quantile ns 0.25;
    r_ns_q3 = quantile ns 0.75;
    r_words = median words;
    r_samples = samples;
    r_batch = batch;
  }

let row_json r =
  Json.Obj
    [
      ("name", Json.String r.r_name);
      ("ns_p50", Json.Float r.r_ns_p50);
      ("ns_q1", Json.Float r.r_ns_q1);
      ("ns_q3", Json.Float r.r_ns_q3);
      ("minor_words_per_op", Json.Float r.r_words);
      ("samples", Json.Int r.r_samples);
      ("batch", Json.Int r.r_batch);
    ]

(* Peak major-heap size so far, MB. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A running digest: each piece is folded into the previous digest, so
   the record of a long run stays 16 bytes. *)
module Chain = struct
  type t = { mutable d : Digest.t }

  let create () = { d = Digest.string "" }
  let add t s = t.d <- Digest.string (t.d ^ s)
  let hex t = Digest.to_hex t.d
end

(* A fixed CPU- and allocation-bound loop that touches no code of the
   repository: its time tracks the host's speed at the moment, so a
   reader can tell a slow machine from a slow commit. *)
module IntMap = Map.Make (Int)

let calibration_ms () =
  let once () =
    let t0 = now_ns () in
    let m = ref IntMap.empty in
    for i = 0 to 19_999 do
      m := IntMap.add (i * 7919 land 0xffff) i !m
    done;
    ignore (Sys.opaque_identity (IntMap.fold (fun _ v a -> a + v) !m 0));
    float_of_int (now_ns () - t0) /. 1e6
  in
  median (Array.init 7 (fun _ -> once ()))

(* The timed operations of one run, in order: host ns and work
   (scenarios, events, searches) per operation. *)
module Timed = struct
  type t = { ns : Sample.t; mutable work : float; mutable total_ns : int }

  let create () = { ns = Sample.create (); work = 0.0; total_ns = 0 }

  let op t ~work ~ns =
    Sample.add t.ns (float_of_int ns);
    t.work <- t.work +. work;
    t.total_ns <- t.total_ns + ns

  (* Run inputs 0, 1, ... through [one i] until [seconds] of operation
     time are spent and a whole number of rounds of [round_len] inputs
     has run (at least one); returns how many inputs ran. *)
  let run t ~seconds ~round_len one =
    let n = ref 0 in
    while !n = 0 || float_of_int t.total_ns /. 1e9 < seconds || !n mod round_len <> 0 do
      one !n;
      incr n
    done;
    !n

  let operations t = Sample.length t.ns
  let rate t = t.work /. (float_of_int t.total_ns /. 1e9)
  let quantile_ms t p = Sample.quantile t.ns p /. 1e6
end

(* The benchmark's own load generator: a seeded Poisson open-loop
   arrival schedule with YCSB-style key choice.

   Everything here is pure host code with its own PRNG (splitmix64), so
   the inputs a seed produces do not depend on any library of the
   program under test. *)

(* splitmix64: tiny, fast and stable across OCaml releases. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform in [0, 1) with 53 random bits. *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next64 t) 11) /. 9007199254740992.0

  let int t bound = int_of_float (float t *. float_of_int bound)

  (* Independent stream [k] of a seed. *)
  let split seed k = create ((seed * 1_000_003) + (k * 7_919) + 17)
end

(* YCSB's Zipfian generator (Gray et al.): rank 0 is the hottest key. *)
module Zipf = struct
  type t = { n : int; theta : float; alpha : float; zetan : float; eta : float }

  let zeta n theta =
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int i ** theta))
    done;
    !acc

  let create ~n ~theta =
    let zetan = zeta n theta and zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta }

  let next t rng =
    let u = Rng.float rng in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** t.theta) then 1
    else
      let v = float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha) in
      min (t.n - 1) (int_of_float v)
end

type keys = Zipfian of float | Uniform

type op = Read | Update

(* One run phase: request [i] is due [due.(i)] cycles after the phase
   opens, performs [ops.(i)] on record [keys.(i)], and is carried by
   session [i mod sessions]. *)
type schedule = { due : float array; ops : op array; keys : int array }

let length s = Array.length s.due

(* [n] arrivals at [rate_per_cycle] with exponential gaps (a Poisson
   process); [read_fraction] of them are reads. Arrivals, operations and
   keys come from separate streams of [seed], so changing the rate keeps
   the key sequence. *)
let poisson ~seed ~salt ~n ~rate_per_cycle ~read_fraction ~records ~keys =
  let arr = Rng.split seed (salt + 1)
  and opr = Rng.split seed (salt + 2)
  and kr = Rng.split seed (salt + 3) in
  let zipf =
    match keys with Zipfian theta -> Some (Zipf.create ~n:records ~theta) | Uniform -> None
  in
  let t = ref 0.0 in
  let due =
    Array.init n (fun _ ->
        t := !t -. (log (1.0 -. Rng.float arr) /. rate_per_cycle);
        !t)
  in
  let ops = Array.init n (fun _ -> if Rng.float opr < read_fraction then Read else Update) in
  let keys =
    Array.init n (fun _ ->
        match zipf with Some z -> Zipf.next z kr | None -> Rng.int kr records)
  in
  { due; ops; keys }

(* Mean and coefficient of variation of the gaps between arrivals. *)
let gap_stats due =
  let n = Array.length due in
  let gaps = Array.init n (fun i -> if i = 0 then due.(0) else due.(i) -. due.(i - 1)) in
  let mean = Array.fold_left ( +. ) 0.0 gaps /. float_of_int n in
  let var =
    Array.fold_left (fun acc g -> acc +. ((g -. mean) *. (g -. mean))) 0.0 gaps
    /. float_of_int n
  in
  (mean, sqrt var /. mean)

(* Keys and values. A value is the key's stamp followed by a body shared
   by every key, so a reply can be checked without storing every value. *)
let key_of i = Printf.sprintf "user%08d" i

let value_body value_size =
  let r = Rng.create 4242 in
  String.init value_size (fun _ -> Char.chr (97 + Rng.int r 26))

let stamp i = Printf.sprintf "<%08d>" i

let value_of ~body i =
  let s = stamp i in
  s ^ String.sub body (String.length s) (String.length body - String.length s)

(* Whether [a.[ao .. ao+n)] equals [b.[bo .. bo+n)], compared eight
   bytes at a time without copying. *)
let sub_equal a ao b bo n =
  let rec words i =
    if i + 8 > n then tail i
    else
      (String.get_int64_ne a (ao + i) : int64) = String.get_int64_ne b (bo + i)
      && words (i + 8)
  and tail i = i >= n || (String.unsafe_get a (ao + i) = String.unsafe_get b (bo + i) && tail (i + 1)) in
  ao >= 0 && bo >= 0 && ao + n <= String.length a && bo + n <= String.length b && words 0

let value_ok ~body i v =
  let s = stamp i in
  let ls = String.length s and n = String.length body in
  String.length v = n && sub_equal v 0 s 0 ls && sub_equal v ls body ls (n - ls)

(* The four state words live in one 32-byte buffer, read and written with
   [Bytes.get_int64_le]/[set_int64_le].  A record of [mutable int64]
   fields would box: every store allocates a fresh 3-word int64 and runs
   the write barrier, 4 stores a draw.  Loads from bytes stay unboxed
   through the arithmetic, so an inlined [next] allocates nothing. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (8 * i)
let[@inline] set t i x = Bytes.set_int64_le t (8 * i) x

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* The all-zero state is the only invalid one; SplitMix64 outputs make it
     astronomically unlikely, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then make 1L 2L 3L 4L
  else make s0 s1 s2 s3

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let copy = Bytes.copy

let state t = [| get t 0; get t 1; get t 2; get t 3 |]

let check_state words =
  if Array.length words <> 4 then
    invalid_arg
      (Printf.sprintf "Xoshiro256: state must have 4 words, got %d" (Array.length words));
  if
    Int64.logor (Int64.logor words.(0) words.(1)) (Int64.logor words.(2) words.(3)) = 0L
  then invalid_arg "Xoshiro256: the all-zero state is invalid"

let of_state words =
  check_state words;
  make words.(0) words.(1) words.(2) words.(3)

let set_state t words =
  check_state words;
  for i = 0 to 3 do
    set t i words.(i)
  done

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.logand jump_word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc i (Int64.logxor (get acc i) (get t i))
          done;
        ignore (next t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32

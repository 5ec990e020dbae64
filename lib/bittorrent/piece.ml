module Rng = Stratify_prng.Rng

type t = { bits : Bytes.t; pieces : int; mutable held : int }

let create ~pieces =
  if pieces <= 0 then invalid_arg "Piece.create: need at least one piece";
  { bits = Bytes.make ((pieces + 7) / 8) '\000'; pieces; held = 0 }

let pieces t = t.pieces

let has t i =
  if i < 0 || i >= t.pieces then invalid_arg "Piece.has: piece out of range";
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let count t = t.held
let is_complete t = t.held = t.pieces

let add t i =
  if has t i then false
  else begin
    let byte = i lsr 3 in
    Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i land 7))));
    t.held <- t.held + 1;
    true
  end

let random_fill t rng ~fraction =
  for i = 0 to t.pieces - 1 do
    if (not (has t i)) && Rng.bernoulli rng fraction then ignore (add t i)
  done

let fill_all t =
  for i = 0 to t.pieces - 1 do
    ignore (add t i)
  done

let clear t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.held <- 0

let iter_held t f =
  for i = 0 to t.pieces - 1 do
    if has t i then f i
  done

(* Padding bits past [pieces] are never set, so whole bytes compare. *)
let[@inline] wanted_byte ~have ~from_ byte =
  Char.code (Bytes.get from_.bits byte) land lnot (Char.code (Bytes.get have.bits byte))

let wants ~have ~from_ =
  let bytes = Bytes.length from_.bits in
  let byte = ref 0 in
  while !byte < bytes && wanted_byte ~have ~from_ !byte = 0 do
    incr byte
  done;
  !byte < bytes

module Availability = struct
  type counts = int array

  let create ~pieces = Array.make pieces 0
  let on_add counts i = counts.(i) <- counts.(i) + 1
  let on_remove counts i = counts.(i) <- counts.(i) - 1

  let of_swarm ~pieces fields =
    let counts = create ~pieces in
    Array.iter
      (fun field ->
        for i = 0 to pieces - 1 do
          if has field i then on_add counts i
        done)
      fields;
    counts

  (* Ascending piece order, strict [<]: the first of the rarest wins. *)
  let rarest_wanted counts ~have ~from_ =
    let best = ref (-1) and best_avail = ref max_int in
    for byte = 0 to Bytes.length from_.bits - 1 do
      let w = wanted_byte ~have ~from_ byte in
      if w <> 0 then
        for bit = 0 to 7 do
          if w land (1 lsl bit) <> 0 then begin
            let i = (byte lsl 3) lor bit in
            if counts.(i) < !best_avail then begin
              best := i;
              best_avail := counts.(i)
            end
          end
        done
    done;
    !best
end

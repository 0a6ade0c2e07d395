let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  set_u8 b off v;
  set_u8 b (off + 1) (v lsr 8)

let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

let set_u32 b off v =
  set_u16 b off (v land 0xffff);
  set_u16 b (off + 2) ((v lsr 16) land 0xffff)

(* Unchecked u32 accessors for the Vmsim protected-access fast path
   (lint rule QS009 confines [Bytes.unsafe_*] to lib/vmsim and
   lib/util). The caller must guarantee [0 <= off && off + 4 <=
   Bytes.length b]. *)
let unsafe_get_u32 b off =
  (* Four loads written out: a local [u8] helper would close over [b]
     and allocate a closure on every call. *)
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

let unsafe_set_u32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_i64 b off = Bytes.get_int64_le b off
let set_i64 b off v = Bytes.set_int64_le b off v
let get_string b off len = Bytes.sub_string b off len
let set_string b off s = Bytes.blit_string s 0 b off (String.length s)

let set_string_padded b off len s =
  let n = min len (String.length s) in
  Bytes.blit_string s 0 b off n;
  Bytes.fill b (off + n) (len - n) '\000'

let get_cstring b off len =
  let s = get_string b off len in
  match String.index_opt s '\000' with None -> s | Some i -> String.sub s 0 i

(* Unchecked native-endian 8-byte load; the diff scans only test words
   for equality, so byte order does not matter. Callers keep
   [0 <= off && off + 8 <= Bytes.length b]. *)
external unsafe_get_word : bytes -> int -> int64 = "%caml_bytes_get64u"

(* First index in [i, stop) where [a] and [b] differ, or [stop]: equal
   8-byte words are skipped whole, bytes are compared only inside a
   differing word and in the tail. Bounds: [0 <= i] and [stop] within
   both buffers. Top-level recursion, so a call allocates nothing. *)
let rec first_diff_byte a b i stop =
  if i >= stop || Bytes.unsafe_get a i <> Bytes.unsafe_get b i then i
  else first_diff_byte a b (i + 1) stop

let rec first_diff a b i stop =
  if i + 8 > stop then first_diff_byte a b i stop
  else if (unsafe_get_word a i : int64) = unsafe_get_word b i then first_diff a b (i + 8) stop
  else first_diff_byte a b i stop

(* First index in [i, stop) where [a] and [b] agree, or [stop]. *)
let rec first_same a b i stop =
  if i >= stop || Bytes.unsafe_get a i = Bytes.unsafe_get b i then i else first_same a b (i + 1) stop

(* [s, e) is the open region and [e] its first clean byte; the next
   differing run joins it when at most [gap] clean bytes separate them
   (cheaper as one record than two). *)
let rec scan_regions a b n gap s e acc =
  let d = first_diff a b e n in
  if d >= n then List.rev ((s, e - s) :: acc)
  else
    let e' = first_same a b (d + 1) n in
    if d - e <= gap then scan_regions a b n gap s e' acc
    else scan_regions a b n gap d e' ((s, e - s) :: acc)

let diff_regions ~old_bytes ~new_bytes ~gap =
  let n = Bytes.length old_bytes in
  if Bytes.length new_bytes <> n then invalid_arg "Codec.diff_regions: length mismatch";
  let d = first_diff old_bytes new_bytes 0 n in
  if d >= n then []
  else scan_regions old_bytes new_bytes n gap d (first_same old_bytes new_bytes (d + 1) n) []

(* QSan shadow check: would replaying [regions] out of [new_bytes]
   onto [old_bytes] reproduce [new_bytes] exactly? I.e., does the
   coalesced diff account for every differing byte of the full-page
   comparison? Regions must be ascending (as [diff_regions] emits).
   Bytes before the head region must agree; its own bytes are skipped
   whole. *)
let rec cover_from a b n i regions =
  i >= n
  ||
  match regions with
  | (off, len) :: rest when i >= off + len -> cover_from a b n i rest
  | (off, len) :: _ when i >= off -> cover_from a b n (off + len) regions
  | (off, _) :: _ ->
    let stop = min n off in
    first_diff a b i stop >= stop && cover_from a b n stop regions
  | [] -> first_diff a b i n >= n

let regions_cover ~old_bytes ~new_bytes regions =
  let n = Bytes.length old_bytes in
  Bytes.length new_bytes = n && cover_from old_bytes new_bytes n 0 regions

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
  let u8 i = Char.code (Bytes.unsafe_get b i) in
  u8 off lor (u8 (off + 1) lsl 8) lor (u8 (off + 2) lsl 16) lor (u8 (off + 3) lsl 24)

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

let diff_regions ~old_bytes ~new_bytes ~gap =
  let n = Bytes.length old_bytes in
  if Bytes.length new_bytes <> n then invalid_arg "Codec.diff_regions: length mismatch";
  let regions = ref [] in
  (* Walk once, tracking the open region; a clean gap shorter than
     [gap] does not close it (cheaper as one record than two). *)
  let rec scan i current =
    if i >= n then begin
      match current with Some (s, e) -> regions := (s, e - s) :: !regions | None -> ()
    end
    else begin
      let differs = Bytes.get old_bytes i <> Bytes.get new_bytes i in
      match (current, differs) with
      | None, false -> scan (i + 1) None
      | None, true -> scan (i + 1) (Some (i, i + 1))
      | Some (s, e), true -> scan (i + 1) (Some (s, max e (i + 1)))
      | Some (s, e), false ->
        if i - e >= gap then begin
          regions := (s, e - s) :: !regions;
          scan (i + 1) None
        end
        else scan (i + 1) (Some (s, e))
    end
  in
  scan 0 None;
  List.rev !regions

(* QSan shadow check: would replaying [regions] out of [new_bytes]
   onto [old_bytes] reproduce [new_bytes] exactly? I.e., does the
   coalesced diff account for every differing byte of the full-page
   comparison? Regions must be ascending (as [diff_regions] emits). *)
let regions_cover ~old_bytes ~new_bytes regions =
  let n = Bytes.length old_bytes in
  Bytes.length new_bytes = n
  &&
  let rec go i regions =
    if i >= n then true
    else
      match regions with
      | (off, len) :: rest when i >= off + len -> go i rest
      | (off, len) :: _ when i >= off && i < off + len -> go (i + 1) regions
      | _ -> Bytes.get old_bytes i = Bytes.get new_bytes i && go (i + 1) regions
  in
  go 0 regions

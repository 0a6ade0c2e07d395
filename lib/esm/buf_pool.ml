type t = {
  buffers : bytes array;
  pages : int array;  (* -1 = empty *)
  pins : int array;
  dirty : bool array;
  refs : bool array;
  map : (int, int) Hashtbl.t;  (* page_id -> frame *)
  mutable hand : int;
  mutable occupied : int;
  (* O(1) free list: [free_stack.(0 .. free_top-1)] are the empty
     frames (top of stack = next frame handed out); [free_pos.(f)] is
     f's index on the stack, -1 while f holds a page. [create] and
     [clear] stack the frames so pops come out in ascending order —
     the same frames, in the same order, the old linear scan chose on
     a pure fill. *)
  free_stack : int array;
  free_pos : int array;
  mutable free_top : int;
}

exception Buffer_full

let reset_free_list t =
  let n = Array.length t.free_stack in
  for i = 0 to n - 1 do
    t.free_stack.(i) <- n - 1 - i;
    t.free_pos.(n - 1 - i) <- i
  done;
  t.free_top <- n

(* Unstack [frame] (it is about to hold a page): swap-remove with the
   stack top so both push and remove stay O(1). *)
let free_list_remove t frame =
  let i = t.free_pos.(frame) in
  let last = t.free_stack.(t.free_top - 1) in
  t.free_stack.(i) <- last;
  t.free_pos.(last) <- i;
  t.free_top <- t.free_top - 1;
  t.free_pos.(frame) <- -1

let free_list_push t frame =
  t.free_stack.(t.free_top) <- frame;
  t.free_pos.(frame) <- t.free_top;
  t.free_top <- t.free_top + 1

let create ~frames =
  if frames <= 0 then invalid_arg "Buf_pool.create";
  let t =
    { buffers = Array.init frames (fun _ -> Bytes.make Page.page_size '\000')
    ; pages = Array.make frames (-1)
    ; pins = Array.make frames 0
    ; dirty = Array.make frames false
    ; refs = Array.make frames false
    ; map = Hashtbl.create (2 * frames)
    ; hand = 0
    ; occupied = 0
    ; free_stack = Array.make frames 0
    ; free_pos = Array.make frames (-1)
    ; free_top = 0 }
  in
  reset_free_list t;
  t

let capacity t = Array.length t.buffers
let occupied t = t.occupied
let frame_bytes t f = t.buffers.(f)
let lookup t page_id = Hashtbl.find_opt t.map page_id
let page_of_frame t f = if t.pages.(f) = -1 then None else Some t.pages.(f)

let free_frame t = if t.free_top = 0 then None else Some t.free_stack.(t.free_top - 1)

let install t ~frame ~page_id =
  if t.pages.(frame) <> -1 then invalid_arg "Buf_pool.install: frame occupied";
  if Hashtbl.mem t.map page_id then invalid_arg "Buf_pool.install: page already resident";
  free_list_remove t frame;
  t.pages.(frame) <- page_id;
  t.pins.(frame) <- 0;
  t.dirty.(frame) <- false;
  t.refs.(frame) <- true;
  Hashtbl.replace t.map page_id frame;
  t.occupied <- t.occupied + 1

let evict t frame =
  if t.pages.(frame) = -1 then invalid_arg "Buf_pool.evict: empty frame";
  if t.pins.(frame) > 0 then invalid_arg "Buf_pool.evict: pinned frame";
  if t.dirty.(frame) then invalid_arg "Buf_pool.evict: dirty frame";
  Hashtbl.remove t.map t.pages.(frame);
  t.pages.(frame) <- -1;
  t.refs.(frame) <- false;
  t.occupied <- t.occupied - 1;
  free_list_push t frame

let pin t f = t.pins.(f) <- t.pins.(f) + 1

let unpin t f =
  if t.pins.(f) <= 0 then invalid_arg "Buf_pool.unpin: not pinned";
  t.pins.(f) <- t.pins.(f) - 1

let pin_count t f = t.pins.(f)
let is_dirty t f = t.dirty.(f)
let mark_dirty t f = t.dirty.(f) <- true
let clear_dirty t f = t.dirty.(f) <- false
let set_ref_bit t f v = t.refs.(f) <- v

let clock_victim t =
  let n = capacity t in
  (* Two full sweeps suffice: the first clears reference bits, the
     second must find a victim unless everything is pinned. *)
  let rec go steps =
    if steps > 2 * n then raise Buffer_full
    else begin
      let f = t.hand in
      t.hand <- (t.hand + 1) mod n;
      if t.pages.(f) = -1 || t.pins.(f) > 0 then go (steps + 1)
      else if t.refs.(f) then begin
        t.refs.(f) <- false;
        go (steps + 1)
      end
      else f
    end
  in
  go 0

let iter_frames f t =
  Array.iteri (fun frame page_id -> if page_id <> -1 then f ~frame ~page_id) t.pages

let dirty_pages t =
  let acc = ref [] in
  iter_frames (fun ~frame ~page_id -> if t.dirty.(frame) then acc := (page_id, frame) :: !acc) t;
  List.rev !acc

let clear ?(force = false) t =
  iter_frames
    (fun ~frame ~page_id:_ ->
      if t.pins.(frame) > 0 && not force then invalid_arg "Buf_pool.clear: pinned frame";
      if t.dirty.(frame) && not force then invalid_arg "Buf_pool.clear: dirty frame";
      t.pins.(frame) <- 0;
      t.dirty.(frame) <- false;
      Hashtbl.remove t.map t.pages.(frame);
      t.pages.(frame) <- -1;
      t.refs.(frame) <- false;
      t.occupied <- t.occupied - 1)
    t;
  t.hand <- 0;
  reset_free_list t

let hand t = t.hand
let set_hand t h = t.hand <- h mod capacity t

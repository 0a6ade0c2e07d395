type 'a t = Leaf | Node of { lo : int; hi : int; v : 'a; l : 'a t; r : 'a t; h : int }

let empty = Leaf
let is_empty = function Leaf -> true | Node _ -> false
let height = function Leaf -> 0 | Node { h; _ } -> h

let rec cardinal = function Leaf -> 0 | Node { l; r; _ } -> 1 + cardinal l + cardinal r

let mk lo hi v l r = Node { lo; hi; v; l; r; h = 1 + max (height l) (height r) }

(* Standard AVL rebalancing: [bal] assumes [l] and [r] differ in height
   by at most 2. *)
let bal lo hi v l r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Leaf -> assert false
    | Node { lo = llo; hi = lhi; v = lv; l = ll; r = lr; _ } ->
      if height ll >= height lr then mk llo lhi lv ll (mk lo hi v lr r)
      else begin
        match lr with
        | Leaf -> assert false
        | Node { lo = lrlo; hi = lrhi; v = lrv; l = lrl; r = lrr; _ } ->
          mk lrlo lrhi lrv (mk llo lhi lv ll lrl) (mk lo hi v lrr r)
      end
  else if hr > hl + 1 then
    match r with
    | Leaf -> assert false
    | Node { lo = rlo; hi = rhi; v = rv; l = rl; r = rr; _ } ->
      if height rr >= height rl then mk rlo rhi rv (mk lo hi v l rl) rr
      else begin
        match rl with
        | Leaf -> assert false
        | Node { lo = rllo; hi = rlhi; v = rlv; l = rll; r = rlr; _ } ->
          mk rllo rlhi rlv (mk lo hi v l rll) (mk rlo rhi rv rlr rr)
      end
  else mk lo hi v l r

let rec overlaps t ~lo ~hi =
  match t with
  | Leaf -> false
  | Node n ->
    if hi <= n.lo then overlaps n.l ~lo ~hi
    else if lo >= n.hi then overlaps n.r ~lo ~hi
    else true

let add t ~lo ~hi v =
  if hi <= lo then invalid_arg "Interval_avl.add: empty interval";
  if overlaps t ~lo ~hi then invalid_arg "Interval_avl.add: overlapping interval";
  let rec go = function
    | Leaf -> mk lo hi v Leaf Leaf
    | Node n -> if lo < n.lo then bal n.lo n.hi n.v (go n.l) n.r else bal n.lo n.hi n.v n.l (go n.r)
  in
  go t

(* Remove the minimum node, returning it and the remaining tree. *)
let rec remove_min = function
  | Leaf -> assert false
  | Node { lo; hi; v; l = Leaf; r; _ } -> ((lo, hi, v), r)
  | Node { lo; hi; v; l; r; _ } ->
    let m, l' = remove_min l in
    (m, bal lo hi v l' r)

let remove t ~lo =
  let rec go = function
    | Leaf -> Leaf
    | Node n ->
      if lo < n.lo then bal n.lo n.hi n.v (go n.l) n.r
      else if lo > n.lo then bal n.lo n.hi n.v n.l (go n.r)
      else begin
        match (n.l, n.r) with
        | Leaf, r -> r
        | l, Leaf -> l
        | l, r ->
          let (slo, shi, sv), r' = remove_min r in
          bal slo shi sv l r'
      end
  in
  go t

let rec find_containing t x =
  match t with
  | Leaf -> None
  | Node n ->
    if x < n.lo then find_containing n.l x
    else if x >= n.hi then find_containing n.r x
    else Some (n.lo, n.hi, n.v)

let rec find_first_from t x =
  match t with
  | Leaf -> None
  | Node n ->
    if n.lo >= x then begin
      match find_first_from n.l x with Some _ as s -> s | None -> Some (n.lo, n.hi, n.v)
    end
    else find_first_from n.r x

let rec iter f = function
  | Leaf -> ()
  | Node n ->
    iter f n.l;
    f ~lo:n.lo ~hi:n.hi n.v;
    iter f n.r

let rec fold f t acc =
  match t with
  | Leaf -> acc
  | Node n ->
    let acc = fold f n.l acc in
    let acc = f ~lo:n.lo ~hi:n.hi n.v acc in
    fold f n.r acc

let find_gap ?(start = 0) t ~width ~limit =
  let exception Found of int in
  (* Scan intervals in order tracking the end of the previous one; the
     first gap wide enough wins. *)
  try
    let last =
      fold
        (fun ~lo ~hi _ prev_end ->
          if lo - prev_end >= width then raise (Found prev_end);
          max prev_end hi)
        t start
    in
    if limit - last >= width then Some last else None
  with Found s -> Some s

let invariants_hold t =
  let rec check lo_bound hi_bound = function
    | Leaf -> true
    | Node n ->
      n.lo < n.hi
      && (match lo_bound with None -> true | Some b -> n.lo >= b)
      && (match hi_bound with None -> true | Some b -> n.hi <= b)
      && n.h = 1 + max (height n.l) (height n.r)
      && abs (height n.l - height n.r) <= 1
      && check lo_bound (Some n.lo) n.l
      && check (Some n.hi) hi_bound n.r
  in
  check None None t

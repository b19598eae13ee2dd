(* Representation dispatch for the stability matrix clock: one branch per
   call so whole-stack runs select the dense or sparse representation from
   configuration alone. *)

type impl = Dense | Sparse

type t = Dense_c of Matrix_clock.t | Sparse_c of Sparse_matrix_clock.t

let create ?(impl = Dense) n =
  match impl with
  | Dense -> Dense_c (Matrix_clock.create n)
  | Sparse -> Sparse_c (Sparse_matrix_clock.create n)

(* The dense implementation copies every merged component into its own
   row storage, so [live] vectors need no special handling there. *)
let update_row ?live t i vc =
  match t with
  | Dense_c m ->
    ignore live;
    Matrix_clock.update_row m i vc
  | Sparse_c m -> Sparse_matrix_clock.update_row ?live m i vc

let update_row_tracked ?live t i vc ~advanced =
  match t with
  | Dense_c m ->
    ignore live;
    Matrix_clock.update_row_tracked m i vc ~advanced
  | Sparse_c m -> Sparse_matrix_clock.update_row_tracked ?live m i vc ~advanced

(* Single-cell merge: advance row [i]'s component [s] to [seq]. An integer
   never aliases a snapshot, so there is no [live] flag. *)
let update_cell_tracked t i s ~seq ~advanced =
  match t with
  | Dense_c m -> Matrix_clock.update_cell_tracked m i s ~seq ~advanced
  | Sparse_c m -> Sparse_matrix_clock.update_cell_tracked m i s ~seq ~advanced

let update_cell t i s ~seq =
  match t with
  | Dense_c m -> Matrix_clock.update_cell m i s ~seq
  | Sparse_c m -> Sparse_matrix_clock.update_cell m i s ~seq

let min_component t s =
  match t with
  | Dense_c m -> Matrix_clock.min_component m s
  | Sparse_c m -> Sparse_matrix_clock.min_component m s

let stable t ~sender ~seq =
  match t with
  | Dense_c m -> Matrix_clock.stable m ~sender ~seq
  | Sparse_c m -> Sparse_matrix_clock.stable m ~sender ~seq

let sparse = function Dense_c _ -> None | Sparse_c m -> Some m

open Rma_access

(** The §6(3) future-work extension: merging for {e non-adjacent}
    accesses.

    The paper observes that MiniVite gains almost nothing from merging
    because its accesses land on attributes of adjacent objects —
    equally-sized, equally-typed accesses at a constant stride with
    gaps in between — and suggests polyhedral-style compression "when we
    can ensure that no accesses will be done between the accesses". This
    store implements the one-dimensional case: a node is a {e region}
    [(base, len, stride, count)] covering bytes
    [base + k*stride .. base + k*stride + len - 1] for [0 <= k < count].

    A new access extends a region when it has the region's element
    length, kind, debug info and issuer, and lands exactly one stride
    after the last element (the stride being fixed by the second
    element). Gap bytes are not covered: an access landing between two
    elements simply coexists as its own region, so detection stays
    exact. Overlaps that are not clean extensions fall back to exploding
    the region into its elements and running the standard
    fragmentation/merging of {!Disjoint_store} — conservative and
    race-preserving.

    Race checks test overlap against {e covered} bytes only, with the
    order-aware rule. *)

type region = {
  base : int;
  len : int;  (** Element length in bytes. *)
  stride : int;  (** Distance between element starts; [>= len]. *)
  count : int;  (** Number of elements; [>= 1]. *)
  kind : Access_kind.t;
  issuer : int;
  seq : int;
  debug : Debug_info.t;
  tinfo : Access.thread_info;
      (** Issuing-thread identity, shared by every element; extension and
          coarsening require it equal so compaction never erases the
          evidence the hybrid program-order test needs. *)
}

val region_hull : region -> Interval.t
val region_covers : region -> Interval.t -> bool
(** Does the region cover at least one byte of the interval? Gap bytes
    do not count. *)

type t

val create : ?order_aware:bool -> ?budget:Rma_fault.Budget.t -> unit -> t
(** Default [order_aware = true]. [?budget] (default:
    unbounded) bounds the region count as on
    {!Disjoint_store.create}; [Coarsen] merges perfect stride
    continuations ignoring debug info (coverage-exact), then spills
    oldest regions if still over. *)

include Store_intf.S with type t := t
(** [size] counts regions. [to_list] renders each region as one access
    over its hull interval (for printing and tests; the hull may include
    uncovered gap bytes). *)

val regions : t -> region list
(** The exact compressed representation, sorted by base. *)

val covered_bytes : t -> int
(** Total bytes actually covered (excluding gaps). *)

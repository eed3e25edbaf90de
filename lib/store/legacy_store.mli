(** The original RMA-Analyzer access store ([1], Aitkaci et al. 2021),
    reproduced with its published weaknesses:

    - accesses are kept {e non-disjoint}: every instrumented access adds
      one node, so the tree grows linearly with the access count (5 002
      nodes for the Code 2 loop, Figure 8b);
    - the conflict check compares the new access only against the nodes
      met on the lower-bound BST descent towards its insertion slot, so
      a wide interval sitting off that path is missed — the Figure 5a
      false negative;
    - the conflict rule is order-insensitive: a local access followed by
      an RMA operation from the same process is flagged exactly like the
      racy converse order, producing the six Table 3 false positives
      (e.g. [ll_load_get_inwindow_origin_safe], Table 2). *)

type t

val create : ?budget:Rma_fault.Budget.t -> unit -> t
(** [?budget] (default: unbounded) bounds the store
    exactly as on {!Disjoint_store.create}; the legacy store spills and
    coarsens over its plain multiset. *)

include Store_intf.S with type t := t
(** [note_epoch] only moves the governance watermark — the legacy store
    has no flight recorder. *)

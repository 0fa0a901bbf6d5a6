(** Cache-line padding for words that one domain writes and others read.

    Two hot words written by different domains must not share a cache
    line, or every write by one invalidates the other's copy (false
    sharing). OCaml 5.2 has [Atomic.make_contended] for this; OCaml 5.1
    has nothing, so this module copies a block into a larger one whose
    trailing words are unused padding. *)

val copy : 'a -> 'a
(** [copy r] is a shallow copy of [r] in a block of [Obj.size r + 15]
    fields, the extra fields holding [0]. Fifteen padding words put a
    block's last field and the first field of whatever block follows it
    at least 128 bytes apart: two 64-byte lines, which also keeps them out
    of one adjacent-line prefetch pair. [r] must be a tag-0 block (an
    ordinary record whose fields are not all floats, or an [Atomic.t]);
    [Invalid_argument] otherwise. Only field access is meaningful on the
    copy: polymorphic equality, hashing and marshalling see the padding. *)

val atomic : 'a -> 'a Atomic.t
(** [atomic v] is [Atomic.make v] padded with {!copy}: a block of 16
    fields whose field 0 is the atomic cell. *)

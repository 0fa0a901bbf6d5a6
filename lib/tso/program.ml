type _ request =
  | Req_load : Addr.t -> int request
  | Req_store : Addr.t * int -> unit request
  | Req_cas : Addr.t * int * int -> bool request
  | Req_fetch_add : Addr.t * int -> int request
  | Req_fence : unit request
  | Req_work : int -> unit request
  | Req_label : string -> unit request
  | Req_pause : unit request

(* One effect carries every instruction: the payload is the request the
   machine executes, so pausing allocates no mirror value. *)
type _ Effect.t += Op : 'a request -> 'a Effect.t

type status =
  | Done
  | Paused : 'a request * ('a, status) Effect.Deep.continuation -> status

let load a = Effect.perform (Op (Req_load a))
let store a v = Effect.perform (Op (Req_store (a, v)))
let cas a ~expect ~replace = Effect.perform (Op (Req_cas (a, expect, replace)))
let fetch_add a d = Effect.perform (Op (Req_fetch_add (a, d)))
let op_fence = Op Req_fence
let fence () = Effect.perform op_fence
let work n = if n > 0 then Effect.perform (Op (Req_work n))
let label s = Effect.perform (Op (Req_label s))
let op_pause = Op Req_pause
let spin_pause () = Effect.perform op_pause

let start body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Op req -> Some (fun (k : (a, status) continuation) -> Paused (req, k))
          | _ -> None);
    }

let describe_named (type a) name (req : a request) =
  match req with
  | Req_load a -> Printf.sprintf "load %s" (name a)
  | Req_store (a, v) -> Printf.sprintf "store %s := %d" (name a) v
  | Req_cas (a, e, r) -> Printf.sprintf "cas %s (%d -> %d)" (name a) e r
  | Req_fetch_add (a, d) -> Printf.sprintf "faa %s += %d" (name a) d
  | Req_fence -> "fence"
  | Req_work n -> Printf.sprintf "work %d" n
  | Req_label s -> Printf.sprintf "label %S" s
  | Req_pause -> "pause"

let describe req =
  describe_named (fun a -> Format.asprintf "%a" Addr.pp a) req

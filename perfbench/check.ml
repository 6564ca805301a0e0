(* Correctness checks: every check is one attempted operation, every
   failed check one failed operation in the result line. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let expect t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    prerr_endline ("perfbench: check failed: " ^ what)
  end

let same_text t what ~expected actual = expect t what (String.equal expected actual)

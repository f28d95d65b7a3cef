open Flo_poly

type stage = Inter | Intra | Canonical

type reason =
  | Optimized
  | Opaque
  | Step1_unsolvable
  | Low_coverage of float
  | Step2_failed of string

type decision = {
  array_id : int;
  array_name : string;
  layout : File_layout.t;
  partition : Array_partition.result option;
  stage : stage;
  reason : reason;
}

type plan = {
  program : Program.t;
  scope : Internode.scope;
  decisions : decision list;
}

let stage_to_string = function
  | Inter -> "inter"
  | Intra -> "intra"
  | Canonical -> "canonical"

let reason_to_string = function
  | Optimized -> "optimized"
  | Opaque -> "opaque"
  | Step1_unsolvable -> "step1-unsolvable"
  | Low_coverage c -> Printf.sprintf "low-coverage:%.3f" c
  | Step2_failed msg -> Printf.sprintf "step2-failed:%s" msg

let run ?(weighted = true) ?(scope = Internode.Both) ?metrics ~spec program =
  let decide id =
    let decl = Program.array_decl program id in
    let refs = Program.refs_to program id in
    let groups = Weights.group_refs refs in
    let canonical ?partition reason =
      {
        array_id = id;
        array_name = decl.Program.name;
        layout = File_layout.Row_major decl.Program.space;
        partition;
        stage = Canonical;
        reason;
      }
    in
    if decl.Program.opaque then canonical Opaque
    else
      match
        Flo_obs.Span.with_ ?metrics "optimizer.step1_solve" (fun () ->
            Array_partition.solve ~weighted groups)
      with
      | None -> canonical Step1_unsolvable
      | Some partition when partition.Array_partition.coverage <= 0.5 ->
        (* no strict weight-majority of references is satisfied:
           restructuring would hurt more references than it helps *)
        canonical (Low_coverage partition.Array_partition.coverage)
      | Some partition -> (
        let step2 s =
          Flo_obs.Span.with_ ?metrics "optimizer.step2_layout" (fun () ->
              Internode.layout_for ~space:decl.Program.space ~partition spec s)
        in
        match step2 scope with
        | layout ->
          {
            array_id = id;
            array_name = decl.Program.name;
            layout;
            partition = Some partition;
            stage = Inter;
            reason = Optimized;
          }
        | exception Invalid_argument msg -> (
          (* degraded mode: the inter-node pattern does not fit this
             hierarchy — retreat to an intra-node Step II over the I/O
             layer only, then to the canonical layout *)
          match step2 Internode.Io_only with
          | layout ->
            {
              array_id = id;
              array_name = decl.Program.name;
              layout;
              partition = Some partition;
              stage = Intra;
              reason = Step2_failed msg;
            }
          | exception Invalid_argument msg2 ->
            canonical ~partition
              (Step2_failed (Printf.sprintf "%s; intra: %s" msg msg2))))
  in
  { program; scope; decisions = List.map decide (Program.array_ids program) }

let layout_of plan id =
  let d = List.find (fun d -> d.array_id = id) plan.decisions in
  d.layout

let optimized_count plan =
  List.length (List.filter (fun d -> d.stage <> Canonical) plan.decisions)

let total_arrays plan = List.length plan.decisions

let degraded plan =
  List.filter
    (fun d -> match (d.stage, d.reason) with Inter, Optimized -> false | _ -> true)
    plan.decisions

let mean_coverage plan =
  let covs =
    List.filter_map
      (fun d ->
        if d.stage = Canonical then None
        else Option.map (fun p -> p.Array_partition.coverage) d.partition)
      plan.decisions
  in
  match covs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. covs /. float_of_int (List.length covs)

let pp ppf plan =
  Format.fprintf ppf "@[<v>plan for %s (scope %s): %d/%d arrays optimized@,%a@]"
    plan.program.Program.name
    (Internode.scope_to_string plan.scope)
    (optimized_count plan) (total_arrays plan)
    (Format.pp_print_list (fun ppf d ->
         Format.fprintf ppf "  %s -> %s%s" d.array_name (File_layout.describe d.layout)
           (match (d.stage, d.reason) with
           | Inter, Optimized ->
             Format.asprintf " (coverage %.0f%%)"
               (100.
               *. (match d.partition with
                  | Some p -> p.Array_partition.coverage
                  | None -> 0.))
           | stage, reason ->
             Printf.sprintf " (%s: %s)" (stage_to_string stage) (reason_to_string reason))))
    plan.decisions

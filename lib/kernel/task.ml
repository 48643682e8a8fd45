open Platform

type transition = Next of string | Stop
type t = { name : string; body : Machine.t -> transition }

type app = {
  app_name : string;
  tasks : t list;
  entry : string;
  check : (Machine.t -> bool) option;
}

let find app name = List.find (fun t -> t.name = name) app.tasks

let make_app ?check ~name ~entry tasks =
  if tasks = [] then invalid_arg "Task.make_app: no tasks";
  let app = { app_name = name; tasks; entry; check } in
  (try ignore (find app entry)
   with Not_found -> invalid_arg ("Task.make_app: unknown entry task " ^ entry));
  app

let index_of app name =
  let rec go i = function
    | [] -> raise Not_found
    | t :: rest -> if t.name = name then i else go (i + 1) rest
  in
  go 0 app.tasks

let task_of_index app i = List.nth app.tasks i
